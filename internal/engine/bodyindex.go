package engine

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
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

// requestBody is one request body read in full under the request cap.
type requestBody struct {
	// buf holds the endpoint, a 0x00 byte and then the body, so that the
	// index key is one hash of buf.
	buf  bytes.Buffer
	head int               // the length of the endpoint prefix
	err  error             // why reading stopped early; nil when the body was read to EOF
	sum  [sha256.Size]byte // the index key of buf; set only when err is nil
}

// maxPooledBody bounds the buffers kept for reuse, so one large body does
// not pin its buffer in the pool.
const maxPooledBody = 64 << 10

var requestBodies = sync.Pool{New: func() any { return new(requestBody) }}

// readBody reads r's body under the request cap and, when it was read in
// full, hashes it with endpoint into its index key. Release the body when
// the handler is done with it.
func readBody(w http.ResponseWriter, r *http.Request, endpoint string) *requestBody {
	b := requestBodies.Get().(*requestBody)
	b.buf.Reset()
	b.buf.WriteString(endpoint)
	b.buf.WriteByte(0)
	b.head = b.buf.Len()
	_, b.err = b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if b.err == nil {
		b.sum = sha256.Sum256(b.buf.Bytes())
	}
	return b
}

func (b *requestBody) release() {
	if b.buf.Cap() <= maxPooledBody {
		requestBodies.Put(b)
	}
}

// decode strictly parses the body into v, failing exactly as decoding the
// request stream would: the bytes read, then the error that stopped the
// read, if any.
func (b *requestBody) decode(v any) error {
	var r io.Reader = bytes.NewReader(b.buf.Bytes()[b.head:])
	if b.err != nil {
		r = io.MultiReader(r, errReader{b.err})
	}
	return spec.DecodeStrict(r, v)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
