// Package collectivetest holds test helpers for code that compares values
// holding collective schedules.
package collectivetest

import (
	"reflect"
	"unsafe"

	"ccube/internal/collective"
)

var scheduleType = reflect.TypeFor[collective.Schedule]()

// DeepEqual is reflect.DeepEqual, except that it does not look at a
// collective.Schedule's op-graph record (its unexported field g). The
// record is shared by every schedule over one op graph, lowers that graph
// on its second run and holds its cache residency, so its state records
// how often and in which order a graph ran, which schedule first adopted
// it and which cache holds it, not what any schedule over it is. Every other field, unexported ones included, is
// compared as reflect.DeepEqual compares it.
func DeepEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == b
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	return equal(va, vb, map[visit]bool{})
}

// visit is a pair of references already under comparison, which a cycle
// reaches again and which then count as equal, as in reflect.DeepEqual.
type visit struct {
	a, b unsafe.Pointer
	typ  reflect.Type
}

func equal(a, b reflect.Value, visited map[visit]bool) bool {
	switch a.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		if a.UnsafePointer() == b.UnsafePointer() && (a.Kind() != reflect.Slice || a.Len() == b.Len()) {
			return true
		}
		v := visit{a.UnsafePointer(), b.UnsafePointer(), a.Type()}
		if visited[v] {
			return true
		}
		visited[v] = true
	}
	switch a.Kind() {
	case reflect.Array:
		for i := range a.Len() {
			if !equal(a.Index(i), b.Index(i), visited) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !equal(a.Index(i), b.Index(i), visited) {
				return false
			}
		}
		return true
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		ea, eb := a.Elem(), b.Elem()
		return ea.Type() == eb.Type() && equal(ea, eb, visited)
	case reflect.Pointer:
		return equal(a.Elem(), b.Elem(), visited)
	case reflect.Struct:
		for i := range a.NumField() {
			if a.Type() == scheduleType && a.Type().Field(i).Name == "g" {
				continue
			}
			if !equal(a.Field(i), b.Field(i), visited) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			vb := b.MapIndex(iter.Key())
			if !vb.IsValid() || !equal(iter.Value(), vb, visited) {
				return false
			}
		}
		return true
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.Complex64, reflect.Complex128:
		return a.Complex() == b.Complex()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Chan, reflect.UnsafePointer:
		return a.Pointer() == b.Pointer()
	}
	panic("collectivetest: unhandled kind " + a.Kind().String())
}
