// Package root imports a dependency that does not parse.
package root

import "fixture/broken"

// Call keeps the import used.
func Call() { broken.Dangling() }
