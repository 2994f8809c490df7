package analysis

// Facts are how one package's analysis informs another's. An analyzer
// attaches a Fact to a package-level object (a function, method, or
// package-scope var) or to the package itself; when a dependent package is
// analyzed later — the driver feeds packages in dependency order — the
// analyzer imports those facts and reasons interprocedurally without
// re-walking the dependency's source. This is a stdlib-only rendition of
// golang.org/x/tools/go/analysis facts: keys are stable textual object
// paths rather than types.Object identity, because a dependent package sees
// its imports through export data, where object identities differ but
// names do not. A run keeps its facts in memory, in one store.

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is a datum attached to an object or package. Implementations must be
// pointer-to-struct.
type Fact interface {
	// AFact is a marker method: it does nothing, it only keeps arbitrary
	// values out of the store.
	AFact()
}

// factKey identifies one stored fact: the defining package, the object's
// path within it ("" for package-level facts), and the fact type name.
type factKey struct {
	pkg string
	obj string
	typ string
}

// factStore accumulates facts across one analysis run. A single store is
// shared by every analyzer and every package in the run; analyzer-distinct
// fact types keep entries from colliding.
type factStore map[factKey]Fact

// factTypeName derives the key name of a fact's dynamic type,
// e.g. "lockorder.Acquires".
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return fmt.Sprintf("%s.%s", pathTail(t.PkgPath()), t.Name())
}

func pathTail(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

// ObjectKey returns the stable textual path of a package-level object:
// "Name" for functions and vars, "Recv.Name" for methods (pointer receivers
// and value receivers share a key — lock identity and call taint do not
// care). It returns "" for objects facts cannot attach to (locals, fields,
// imported package names).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				return named.Obj().Name() + "." + o.Name()
			}
			return ""
		}
		return o.Name()
	case *types.Var:
		if o.IsField() || o.Pkg().Scope().Lookup(o.Name()) != o {
			return ""
		}
		return o.Name()
	}
	return ""
}

// exportObject records fact f for obj. Unsupported objects are ignored.
func (s factStore) exportObject(obj types.Object, f Fact) {
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	s[factKey{pkg: obj.Pkg().Path(), obj: key, typ: factTypeName(f)}] = f
}

// importObject copies the stored fact for obj into f, reporting whether one
// existed.
func (s factStore) importObject(obj types.Object, f Fact) bool {
	key := ObjectKey(obj)
	if key == "" || obj.Pkg() == nil {
		return false
	}
	return s.copyInto(factKey{pkg: obj.Pkg().Path(), obj: key, typ: factTypeName(f)}, f)
}

func (s factStore) copyInto(k factKey, f Fact) bool {
	stored, ok := s[k]
	if !ok {
		return false
	}
	dst := reflect.ValueOf(f)
	src := reflect.ValueOf(stored)
	if dst.Kind() != reflect.Pointer || src.Kind() != reflect.Pointer || dst.Type() != src.Type() {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}
