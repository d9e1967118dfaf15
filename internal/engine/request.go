package engine

import "wirelesshart/internal/spec"

// The request reader decodes the POST bodies of /v1/network, /v1/evaluate,
// /v1/batch, /v1/peer/solve and /v1/predict with jsonReader, without
// reflection. It reads a strict subset of what spec.DecodeStrict accepts:
// one object at the top, members in any order under their exact names,
// each at most once; JSON whitespace between tokens; null anywhere below
// the top, which leaves the zero value; [] as an empty non-nil slice;
// numbers as the JSON grammar writes them, integers only in int fields,
// through strconv as encoding/json parses them; and strings unescaped as
// encoding/json unescapes them. It declines anything else: a re-cased,
// escaped, unknown or repeated member name, a fraction or exponent in an
// int field, a number strconv rejects, trailing data. A body it accepts,
// DecodeStrict accepts too, into a deeply equal value with bit-identical
// floats (FuzzDecodeRequest); a body it declines goes to DecodeStrict,
// whose value or error is the answer.

// requestReader is a request type the reader knows.
type requestReader[T any] interface {
	*T
	read(*jsonReader)
}

// decodeRequest decodes b into a T: with the request reader when b was
// read in full and the reader accepts it, and otherwise with
// b.decodeStrict, which fails exactly as decoding the request stream
// would.
func decodeRequest[T any, P requestReader[T]](b *requestBody) (T, error) {
	if b.err == nil {
		if v, err := readRequest[T, P](b.data()); err == nil {
			return v, nil
		}
	}
	var v T
	err := b.decodeStrict(&v)
	return v, err
}

// readRequest reads data into a T with the request reader, or returns
// why the reader declines it.
func readRequest[T any, P requestReader[T]](data []byte) (T, error) {
	var v T
	r := newJSONReader(data)
	defer r.recycle()
	P(&v).read(r)
	if err := r.end(); err != nil {
		return *new(T), err
	}
	return v, nil
}

// The members of each request object, in the order of their struct's
// fields; member returns an index into these.
var (
	networkMembers   = []string{"scenario"}
	evaluateMembers  = []string{"scenario", "source"}
	batchMembers     = []string{"scenarios"}
	peerSolveMembers = []string{"key", "scenario"}
	predictMembers   = []string{"scenario", "candidates"}
	candidateMembers = []string{"via", "ebN0", "ebN0s"}

	specMembers     = []string{"nodes", "links", "schedule", "reportingInterval", "ttl", "fdown", "messageBits", "defaultBer", "sources"}
	nodeMembers     = []string{"name", "kind"}
	linkMembers     = []string{"a", "b", "pfl", "ber", "ebN0", "availability", "prc", "fading", "failure"}
	fadingMembers   = []string{"transitions", "success"}
	failureMembers  = []string{"kind", "fromSlot", "toSlot"}
	scheduleMembers = []string{"fup", "slots", "policy", "extraIdle", "priority", "channels"}
	slotMembers     = []string{"slot", "from", "to", "source"}
)

func (q *networkRequest) read(r *jsonReader) {
	r.expect('{')
	for seen := uint64(0); ; {
		switch r.member(networkMembers, &seen) {
		case 0:
			q.Scenario = r.spec()
		default:
			return
		}
	}
}

func (q *evaluateRequest) read(r *jsonReader) {
	r.expect('{')
	for seen := uint64(0); ; {
		switch r.member(evaluateMembers, &seen) {
		case 0:
			q.Scenario = r.spec()
		case 1:
			q.Source = r.strOrNull()
		default:
			return
		}
	}
}

func (q *batchRequest) read(r *jsonReader) {
	r.expect('{')
	for seen := uint64(0); ; {
		switch r.member(batchMembers, &seen) {
		case 0:
			q.Scenarios = readArray(r, &r.specs, r.spec)
		default:
			return
		}
	}
}

func (q *peerSolveRequest) read(r *jsonReader) {
	r.expect('{')
	for seen := uint64(0); ; {
		switch r.member(peerSolveMembers, &seen) {
		case 0:
			q.Key = r.strOrNull()
		case 1:
			q.Scenario = r.spec()
		default:
			return
		}
	}
}

func (q *predictRequest) read(r *jsonReader) {
	r.expect('{')
	for seen := uint64(0); ; {
		switch r.member(predictMembers, &seen) {
		case 0:
			q.Scenario = r.spec()
		case 1:
			q.Candidates = readArray(r, &r.cands, r.candidate)
		default:
			return
		}
	}
}

func (r *jsonReader) candidate() (c predictCandidate) {
	if !r.object() {
		return c
	}
	for seen := uint64(0); ; {
		switch r.member(candidateMembers, &seen) {
		case 0:
			c.Via = r.strOrNull()
		case 1:
			c.EbN0 = r.floatPtr()
		case 2:
			c.EbN0s = readArray(r, &r.floats, r.floatOrNull)
		default:
			return c
		}
	}
}

func (r *jsonReader) spec() *spec.Spec {
	if !r.object() {
		return nil
	}
	s := new(spec.Spec)
	for seen := uint64(0); ; {
		switch r.member(specMembers, &seen) {
		case 0:
			s.Nodes = readArray(r, &r.nodes, r.node)
		case 1:
			s.Links = readArray(r, &r.links, r.link)
		case 2:
			r.schedule(&s.Schedule)
		case 3:
			s.ReportingInterval = r.intOrNull()
		case 4:
			s.TTL = r.intOrNull()
		case 5:
			s.Fdown = r.intOrNull()
		case 6:
			s.MessageBits = r.intOrNull()
		case 7:
			s.DefaultBER = r.floatPtr()
		case 8:
			s.Sources = readArray(r, &r.strs, r.strOrNull)
		default:
			return s
		}
	}
}

func (r *jsonReader) node() (n spec.Node) {
	if !r.object() {
		return n
	}
	for seen := uint64(0); ; {
		switch r.member(nodeMembers, &seen) {
		case 0:
			n.Name = r.strOrNull()
		case 1:
			n.Kind = r.strOrNull()
		default:
			return n
		}
	}
}

func (r *jsonReader) link() (l spec.Link) {
	if !r.object() {
		return l
	}
	for seen := uint64(0); ; {
		switch r.member(linkMembers, &seen) {
		case 0:
			l.A = r.strOrNull()
		case 1:
			l.B = r.strOrNull()
		case 2:
			l.PFl = r.floatPtr()
		case 3:
			l.BER = r.floatPtr()
		case 4:
			l.EbN0 = r.floatPtr()
		case 5:
			l.Availability = r.floatPtr()
		case 6:
			l.PRc = r.floatPtr()
		case 7:
			l.Fading = r.fading()
		case 8:
			l.Failure = r.failure()
		default:
			return l
		}
	}
}

func (r *jsonReader) fading() *spec.Fading {
	if !r.object() {
		return nil
	}
	f := new(spec.Fading)
	for seen := uint64(0); ; {
		switch r.member(fadingMembers, &seen) {
		case 0:
			f.Transitions = readArray(r, &r.rows, r.floatRow)
		case 1:
			f.Success = r.floatRow()
		default:
			return f
		}
	}
}

func (r *jsonReader) floatRow() []float64 {
	return readArray(r, &r.floats, r.floatOrNull)
}

func (r *jsonReader) failure() *spec.Failure {
	if !r.object() {
		return nil
	}
	f := new(spec.Failure)
	for seen := uint64(0); ; {
		switch r.member(failureMembers, &seen) {
		case 0:
			f.Kind = r.strOrNull()
		case 1:
			f.FromSlot = r.intOrNull()
		case 2:
			f.ToSlot = r.intOrNull()
		default:
			return f
		}
	}
}

func (r *jsonReader) schedule(sc *spec.Schedule) {
	if !r.object() {
		return
	}
	for seen := uint64(0); ; {
		switch r.member(scheduleMembers, &seen) {
		case 0:
			sc.Fup = r.intOrNull()
		case 1:
			sc.Slots = readArray(r, &r.slots, r.transmission)
		case 2:
			sc.Policy = r.strOrNull()
		case 3:
			sc.ExtraIdle = r.intOrNull()
		case 4:
			sc.Priority = readArray(r, &r.strs, r.strOrNull)
		case 5:
			sc.Channels = r.intOrNull()
		default:
			return
		}
	}
}

func (r *jsonReader) transmission() (t spec.Transmission) {
	if !r.object() {
		return t
	}
	for seen := uint64(0); ; {
		switch r.member(slotMembers, &seen) {
		case 0:
			t.Slot = r.intOrNull()
		case 1:
			t.From = r.strOrNull()
		case 2:
			t.To = r.strOrNull()
		case 3:
			t.Source = r.strOrNull()
		default:
			return t
		}
	}
}

// The request schema's scalars take null as encoding/json does: it leaves
// the zero value, and a nil pointer.

func (r *jsonReader) intOrNull() int {
	if r.null() {
		return 0
	}
	return r.int()
}

func (r *jsonReader) floatOrNull() float64 {
	if r.null() {
		return 0
	}
	return r.float()
}

func (r *jsonReader) strOrNull() string {
	if r.null() {
		return ""
	}
	return r.str()
}

// floatPtr points into r.slab, which it fills and replaces 64 values at a
// time: a sweep sets a float pointer on every link of every scenario.
func (r *jsonReader) floatPtr() *float64 {
	if r.null() {
		return nil
	}
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]float64, 0, 64)
	}
	r.slab = append(r.slab, r.float())
	return &r.slab[len(r.slab)-1]
}
