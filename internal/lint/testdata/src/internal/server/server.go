// Package server is a lint fixture for the serve path's JSON fast path:
// des-hot-alloc covers internal/server's pooled-buffer helpers too.
package server

// getBuf models the JSON fast path's pool feeder: an undocumented make in a
// server hot function is flagged by des-hot-alloc.
func getBuf() []byte {
	return make([]byte, 0, 64) // want "des-hot-alloc"
}

// encodeBody appends into a pooled buffer; documented growth passes.
func encodeBody(b []byte) []byte {
	return append(b, '{', '}') // amortized: pooled response buffer reused across requests
}

// Encode references the helpers so they are live.
func Encode() []byte {
	return encodeBody(getBuf())
}
