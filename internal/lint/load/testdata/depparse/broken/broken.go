// Package broken does not parse: the brace below never closes. It is
// loaded only as a dependency of package root.
package broken

func Dangling() {
