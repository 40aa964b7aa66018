//go:build !race

// The exact counts below hold only outside -race: there sync.Pool drops
// objects at random, so a Get may allocate a fresh buffer.

package server

import (
	"net/http"
	"testing"
)

// TestEncodeBodyAllocations pins encodeBody, once the buffer pool is warm,
// at one allocation: the refcounted cachedResponse. The body is rendered
// into a pooled buffer, so a per-call buffer or append growth shows here.
func TestEncodeBodyAllocations(t *testing.T) {
	plan, sim, _ := realResponses(t)
	for _, v := range []any{plan, sim} {
		encodeBody(v).release() // grow the pooled buffer to the body's size
		if allocs := testing.AllocsPerRun(100, func() {
			encodeBody(v).release()
		}); allocs != 1 {
			t.Errorf("encodeBody(%T): %v allocs/op, want 1 (the cachedResponse)", v, allocs)
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps one header map and
// drops the body, so it adds no allocations of its own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestWriteAPIErrorAllocations pins writeAPIError, once the buffer pool is
// warm, at one allocation: the Content-Type header's value slice. The error
// body itself is rendered into a pooled buffer with none.
func TestWriteAPIErrorAllocations(t *testing.T) {
	w := &discardWriter{h: http.Header{}}
	e := errBadRequest("invalid JSON body: %s", "unexpected EOF")
	writeAPIError(w, e)
	if allocs := testing.AllocsPerRun(100, func() {
		writeAPIError(w, e)
	}); allocs != 1 {
		t.Errorf("writeAPIError: %v allocs/op, want 1 (the header value)", allocs)
	}
}
