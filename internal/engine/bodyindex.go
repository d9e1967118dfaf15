package engine

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"slices"
	"sync"

	"wirelesshart/internal/spec"
)

// bodyIndexPerResult sizes the body index against the result cache: room
// for one /v1/network body and 31 /v1/evaluate bodies, one per source, for
// every cached result.
const bodyIndexPerResult = 32

// bodyIndex maps a request's endpoint and raw body bytes to what its
// handler derived from them before the result-cache lookup: the scenario's
// canonical key and, for /v1/evaluate, the source. Decode and key are pure
// functions of those bytes, so a byte-identical resend goes straight to
// the lookup. The index holds keys, not results: the result cache stays
// the one store of answers, and a body whose result was evicted is decoded
// again. Only a body that decoded, keyed and was answered enters.
type bodyIndex struct {
	mu  sync.Mutex
	lru *lruCache[[sha256.Size]byte, bodyEntry]
}

// bodyEntry is what one indexed body derived.
type bodyEntry struct {
	key    string // the scenario's canonical key
	source string // /v1/evaluate's source; "" for /v1/network
}

func newBodyIndex(capacity int) *bodyIndex {
	return &bodyIndex{lru: newLRU[[sha256.Size]byte, bodyEntry](capacity)}
}

func (x *bodyIndex) get(sum [sha256.Size]byte) (bodyEntry, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.lru.get(sum)
}

func (x *bodyIndex) add(sum [sha256.Size]byte, ent bodyEntry) {
	x.mu.Lock()
	x.lru.add(sum, ent)
	x.mu.Unlock()
}

func (x *bodyIndex) len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.lru.len()
}

// requestBody is one request body read under the request cap.
type requestBody struct {
	// buf holds an indexed body's endpoint and a 0x00 byte, and then the
	// body, so that the index key is one hash of buf.
	buf  []byte
	head int               // the length of the endpoint prefix
	err  error             // why reading stopped early; nil when the body was read to EOF
	sum  [sha256.Size]byte // the index key of buf; set only for an indexed body read in full
}

// maxPooledBody bounds the buffers kept for reuse, so one large body does
// not pin its buffer in the pool.
const maxPooledBody = 64 << 10

var requestBodies = sync.Pool{New: func() any { return new(requestBody) }}

// readBody reads r's body under the request cap. A body whose length the
// client announced within the cap is read into one buffer of that length
// (and one byte more, for the read that meets its end); any other grows
// its buffer as it reads. With an endpoint, a body read in full is hashed
// with endpoint into its index key; a body no handler indexes passes "".
// Release the body when the handler is done with it.
func readBody(w http.ResponseWriter, r *http.Request, endpoint string) *requestBody {
	b := requestBodies.Get().(*requestBody)
	b.buf, b.err = b.buf[:0], nil
	if endpoint != "" {
		b.buf = append(append(b.buf, endpoint...), 0)
	}
	b.head = len(b.buf)
	if n := r.ContentLength; n >= 0 && n <= maxRequestBytes {
		b.buf = slices.Grow(b.buf, int(n)+1)
	}
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	for {
		if len(b.buf) == cap(b.buf) {
			b.buf = slices.Grow(b.buf, bytes.MinRead)
		}
		n, err := body.Read(b.buf[len(b.buf):cap(b.buf)])
		b.buf = b.buf[:len(b.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			b.err = err
			break
		}
	}
	if endpoint != "" && b.err == nil {
		b.sum = sha256.Sum256(b.buf)
	}
	return b
}

func (b *requestBody) release() {
	if cap(b.buf) <= maxPooledBody {
		requestBodies.Put(b)
	}
}

// data returns the body's bytes.
func (b *requestBody) data() []byte { return b.buf[b.head:] }

// decodeStrict parses the body into v with spec.DecodeStrict, failing
// exactly as decoding the request stream would: the bytes read, then the
// error that stopped the read, if any.
func (b *requestBody) decodeStrict(v any) error {
	var r io.Reader = bytes.NewReader(b.data())
	if b.err != nil {
		r = io.MultiReader(r, errReader{b.err})
	}
	return spec.DecodeStrict(r, v)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
