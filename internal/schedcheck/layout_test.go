package schedcheck_test

import (
	"reflect"
	"testing"
	"unsafe"

	"ccube/internal/schedcheck"
)

// TestOpLayout guards the op record every schedule is made of: at most 32
// bytes, and nothing in it the collector has to scan, so a schedule's ops
// are one pointer-free block however many a cache holds.
func TestOpLayout(t *testing.T) {
	if n := unsafe.Sizeof(schedcheck.Op{}); n > 32 {
		t.Errorf("schedcheck.Op is %d bytes, want <= 32", n)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the op record must hold no pointers", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(schedcheck.Op{}), "Op")
}
