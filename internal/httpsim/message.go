// Package httpsim models HTTP-style request/response exchanges over the
// simulated transport. Messages carry real headers — a list of
// key/value fields, the substrate for the paper's provenance mechanism,
// which is header rewriting — while bodies are represented by their
// byte counts and accounted on the wire without being materialized.
//
// Multiple requests may be outstanding on one connection; the byte
// stream serializes them in order (head-of-line blocking included,
// faithfully to a multiplexed sidecar channel), and responses are
// matched to requests by ID.
package httpsim

import (
	"fmt"
	"slices"
	"strings"
)

// field is one header: a lower-cased key and its value.
type field struct{ key, value string }

// Header is a case-insensitive single-valued header list. Keys are
// canonicalized to lower case, mirroring HTTP/2 practice, and each
// appears at most once. A message carries a handful of headers, few
// enough to find by scanning; the zero Header is empty and ready to use.
type Header []field

// index returns the position of the lower-cased key, or -1.
func (h Header) index(key string) int {
	for i := range h {
		if h[i].key == key {
			return i
		}
	}
	return -1
}

// Set stores the value under the lower-cased key.
func (h *Header) Set(key, value string) {
	key = strings.ToLower(key)
	if i := h.index(key); i >= 0 {
		(*h)[i].value = value
		return
	}
	*h = append(*h, field{key, value})
}

// Get returns the value for the lower-cased key ("" if absent).
func (h Header) Get(key string) string {
	if i := h.index(strings.ToLower(key)); i >= 0 {
		return h[i].value
	}
	return ""
}

// Has reports whether the key is present.
func (h Header) Has(key string) bool { return h.index(strings.ToLower(key)) >= 0 }

// Del removes the key, closing the gap so the list stays dense.
func (h *Header) Del(key string) {
	if i := h.index(strings.ToLower(key)); i >= 0 {
		*h = slices.Delete(*h, i, i+1)
	}
}

// Clone returns a copy that shares no storage with h.
func (h Header) Clone() Header { return slices.Clone(h) }

// wireSize approximates the serialized size: "key: value\r\n".
func (h Header) wireSize() int {
	n := 0
	for _, f := range h {
		n += len(f.key) + len(f.value) + 4
	}
	return n
}

// String renders headers deterministically (sorted) for logs and tests.
func (h Header) String() string {
	sorted := slices.Clone(h)
	slices.SortFunc(sorted, func(a, b field) int { return strings.Compare(a.key, b.key) })
	var b strings.Builder
	for _, f := range sorted {
		fmt.Fprintf(&b, "%s: %s\r\n", f.key, f.value)
	}
	return b.String()
}

// inlineHeaders is how many headers a request holds without a second
// allocation. Requests on the mesh carry five or six; a ninth spills
// to the heap through append.
const inlineHeaders = 8

// Request is an HTTP-style request. BodyBytes is the body's wire size.
type Request struct {
	Method  string
	Path    string
	Headers Header
	// BodyBytes is the request body size in bytes (not materialized).
	BodyBytes int
	// inline backs Headers until it outgrows it, so a request is one
	// allocation.
	inline [inlineHeaders]field
}

// NewRequest builds a request whose headers live inside it.
func NewRequest(method, path string) *Request {
	r := &Request{Method: method, Path: path}
	r.Headers = r.inline[:0]
	return r
}

// Clone deep-copies the request (sidecars forward modified copies).
func (r *Request) Clone() *Request {
	c := NewRequest(r.Method, r.Path)
	c.Headers = append(c.Headers, r.Headers...)
	c.BodyBytes = r.BodyBytes
	return c
}

// WireSize returns the request's total on-wire bytes.
func (r *Request) WireSize() int {
	// "METHOD path HTTP/1.1\r\n" + headers + blank line + body.
	return len(r.Method) + len(r.Path) + 12 + r.Headers.wireSize() + 2 + r.BodyBytes
}

// String renders a compact one-line description.
func (r *Request) String() string {
	return fmt.Sprintf("%s %s (%dB)", r.Method, r.Path, r.BodyBytes)
}

// Response is an HTTP-style response.
type Response struct {
	Status  int
	Headers Header
	// BodyBytes is the response body size in bytes (not materialized).
	BodyBytes int
}

// NewResponse builds a response with no headers; the first Set
// allocates their list.
func NewResponse(status int) *Response {
	return &Response{Status: status}
}

// Clone deep-copies the response.
func (r *Response) Clone() *Response {
	return &Response{Status: r.Status, Headers: r.Headers.Clone(), BodyBytes: r.BodyBytes}
}

// WireSize returns the response's total on-wire bytes.
func (r *Response) WireSize() int {
	// "HTTP/1.1 200 OK\r\n" + headers + blank line + body.
	return 17 + r.Headers.wireSize() + 2 + r.BodyBytes
}

// String renders a compact one-line description.
func (r *Response) String() string {
	return fmt.Sprintf("%d (%dB)", r.Status, r.BodyBytes)
}

// Common status codes used across the mesh.
const (
	StatusOK                  = 200
	StatusForbidden           = 403
	StatusNotFound            = 404
	StatusConflict            = 409
	StatusTooManyRequests     = 429
	StatusInternalServerError = 500
	StatusBadGateway          = 502
	StatusServiceUnavailable  = 503
	StatusGatewayTimeout      = 504
)
