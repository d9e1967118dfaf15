// Package engine is the concurrent evaluation engine behind cmd/whart-server:
// it accepts scenario specs (the JSON network form of internal/spec, also
// produced from the fluent API by Network.Spec), canonicalizes each into a
// deterministic cache key, and serves solved results — reachability, delay
// PMF and expectation, utilization, and the cycle functions needed for
// routing-prediction composition — from a bounded LRU cache. Concurrent
// identical queries are deduplicated (single-flight) so each distinct
// scenario is solved exactly once, a worker pool bounds concurrent DTMC
// solves, and an observability layer counts solves, cache traffic and solve
// latency quantiles.
package engine

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// Key returns the deterministic cache key of a scenario: the hex SHA-256
// of its canonical form. Two specs that differ only in declaration order,
// field choice (BER vs the equivalent p_fl) or spelled-out defaults share
// a key; any semantic change produces a new one.
func Key(s *spec.Spec) (string, error) {
	key, _, err := keyAndBase(s)
	return key, err
}

// digest is a SHA-256 sum: a scenario's base digest.
type digest = [sha256.Size]byte

// keyAndBase returns the key of s and its base digest, both from one
// canonical pass. The base digest is the SHA-256 of the canonical form
// with every "Failure" member written as "": the sum behind the key of s
// with its failures cleared. (Links sort by their endpoints first, which
// are unique in any spec Build accepts, so clearing failures moves no
// link.) Two specs with one base digest realize the same intact network,
// so the build of either is the spec.Built.Overlay of the other.
func keyAndBase(s *spec.Spec) (string, digest, error) {
	c := keyBufs.Get().(*keyBuf)
	defer c.release()
	b, err := c.canonicalize(s)
	if err != nil {
		return "", digest{}, err
	}
	sum := sha256.Sum256(b)
	base := sum
	if len(c.failures) > 0 {
		if c.h == nil {
			c.h = sha256.New()
		}
		c.h.Reset()
		at := 0
		for _, f := range c.failures {
			c.h.Write(b[at:f[0]])
			c.h.Write(noFailure)
			at = f[1]
		}
		c.h.Write(b[at:])
		c.sum = c.h.Sum(c.sum[:0])
		copy(base[:], c.sum)
	}
	return hex.EncodeToString(sum[:]), base, nil
}

// noFailure is the text of a "Failure" member without a failure.
var noFailure = []byte(`""`)

// The canonical form is the compact JSON of this object, members in this
// order:
//
//	{"Nodes":[{"Name","Kind"}...],
//	 "Links":[{"A","B","PFl","PRc","Fading"?,"Failure"}...],
//	 "Schedule":{"Policy","Priority":[...],"ExtraIdle","Channels","Fup",
//	             "Slots":[{"Slot","From","To","Source"}...]},
//	 "Is","TTL","Fdown","Bits","Sources":[...]}
//
// Strings, numbers and lists are written byte for byte as encoding/json
// writes them; Nodes, Links, Priority and Slots are null when empty.
//
// Canonicalization must merge exactly the scenario pairs that provably
// yield identical results:
//
//   - Node order is semantic and preserved: node ids follow declaration
//     order and break BFS routing ties (the network manager's deterministic
//     choice), so reordering nodes can reroute the mesh.
//   - Link order is not semantic (routing consults sorted neighbor sets,
//     never link ids), so links are sorted and their endpoints oriented
//     lexicographically.
//   - Each link is resolved to its effective two-state model (p_fl, p_rc):
//     a link declared via BER and one declared via the equivalent failure
//     probability hash identically, while any numeric change misses. A
//     k-state fading link instead carries its link.Process encoding as
//     Fading (PFl and PRc stay 0); the member is left out for two-state
//     links, which keeps their historical bytes. Process encodings are
//     collision-free across implementations, so a fading link never hashes
//     like a scalar one.
//   - Failure is "", "permanent" or "window:from:to".
//   - Defaults are materialized (reporting interval 4, message bits 1016,
//     channels 1, empty sources = all field devices) so a spec spelling a
//     default out hashes like one omitting it.
//   - Explicit schedule entries are order-insensitive and sorted by slot;
//     a Priority list is an ordered allocation sequence and preserved.

// keyLink is one declared link resolved for its key: its endpoints in
// lexicographic order, its two-state model or its fading process, and its
// failure text.
type keyLink struct {
	a, b    string
	model   link.Model
	fading  link.Process // nil for a two-state link
	failure string
}

// keyBuf holds one Key call's scratch: the canonical text, the resolved
// links, the link and slot orders and the sources. Buffers are pooled, so
// a warm key allocates only what resolving its links does.
type keyBuf struct {
	b        []byte
	links    []keyLink
	order    []int32  // link indices in canonical order
	slots    []int32  // explicit-slot indices in canonical order
	failures [][2]int // the spans of b holding a non-empty "Failure" value
	sources  []string
	pfl, prc floatText
	h        hash.Hash // the base digest's hasher
	sum      []byte    // the base digest's scratch
}

var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

// release drops c's references into the spec it canonicalized and
// recycles it.
func (c *keyBuf) release() {
	clear(c.links)
	clear(c.sources)
	keyBufs.Put(c)
}

// floatText remembers the JSON text of the last float it wrote: nearly
// every link shares p_rc 0.9, and formatting is the costliest part of a
// key.
type floatText struct {
	bits uint64
	text []byte
}

func (t *floatText) append(b []byte, f float64) []byte {
	if bits := math.Float64bits(f); len(t.text) == 0 || bits != t.bits {
		t.bits, t.text = bits, appendJSONFloat(t.text[:0], f)
	}
	return append(b, t.text...)
}

// canonicalize writes the canonical form of s into c and returns it; the
// bytes stay valid until c is released.
func (c *keyBuf) canonicalize(s *spec.Spec) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("engine: nil scenario")
	}
	c.links, c.order, c.failures = c.links[:0], c.order[:0], c.failures[:0]
	for i, l := range s.Links {
		cl := keyLink{a: l.A, b: l.B}
		var err error
		if l.Fading == nil {
			cl.model, err = s.ResolveLinkModel(l)
		} else {
			cl.fading, err = s.ResolveLinkProcess(l)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: link %q-%q: %w", l.A, l.B, err)
		}
		if cl.a > cl.b {
			cl.a, cl.b = cl.b, cl.a
		}
		if f := l.Failure; f != nil {
			switch f.Kind {
			case "permanent":
				cl.failure = "permanent"
			case "window":
				cl.failure = "window:" + strconv.Itoa(f.FromSlot) + ":" + strconv.Itoa(f.ToSlot)
			default:
				return nil, fmt.Errorf("engine: link %q-%q: unknown failure kind %q", l.A, l.B, f.Kind)
			}
		}
		c.links = append(c.links, cl)
		c.order = append(c.order, int32(i))
	}
	// Only duplicate links tie on endpoints and failure, and Build rejects
	// those; the declaration index still makes the order total.
	slices.SortFunc(c.order, func(i, j int32) int {
		x, y := &c.links[i], &c.links[j]
		if r := strings.Compare(x.a, y.a); r != 0 {
			return r
		}
		if r := strings.Compare(x.b, y.b); r != 0 {
			return r
		}
		if r := strings.Compare(x.failure, y.failure); r != 0 {
			return r
		}
		return cmp.Compare(i, j)
	})
	slots := s.Schedule.Slots
	c.slots = c.slots[:0]
	for i := range slots {
		c.slots = append(c.slots, int32(i))
	}
	slices.SortFunc(c.slots, func(i, j int32) int {
		x, y := &slots[i], &slots[j]
		if r := cmp.Compare(x.Slot, y.Slot); r != 0 {
			return r
		}
		if r := strings.Compare(x.Source, y.Source); r != 0 {
			return r
		}
		return cmp.Compare(i, j)
	})

	b := append(c.b[:0], `{"Nodes":`...)
	c.sources = c.sources[:0]
	for i, n := range s.Nodes {
		b = listSep(b, i)
		kind := n.Kind
		if kind == "" {
			kind = "field-device"
		}
		if kind == "field-device" && len(s.Sources) == 0 {
			c.sources = append(c.sources, n.Name)
		}
		b = append(b, `{"Name":`...)
		b = appendJSONString(b, n.Name)
		b = append(b, `,"Kind":`...)
		b = appendJSONString(b, kind)
		b = append(b, '}')
	}
	b = listEnd(b, len(s.Nodes))

	b = append(b, `,"Links":`...)
	for i, li := range c.order {
		l := &c.links[li]
		b = listSep(b, i)
		b = append(b, `{"A":`...)
		b = appendJSONString(b, l.a)
		b = append(b, `,"B":`...)
		b = appendJSONString(b, l.b)
		b = append(b, `,"PFl":`...)
		b = c.pfl.append(b, l.model.FailureProb())
		b = append(b, `,"PRc":`...)
		b = c.prc.append(b, l.model.RecoveryProb())
		if l.fading != nil {
			b = append(b, `,"Fading":`...)
			b = appendJSONString(b, string(l.fading.AppendKey(nil)))
		}
		b = append(b, `,"Failure":`...)
		at := len(b)
		b = appendJSONString(b, l.failure)
		if l.failure != "" {
			c.failures = append(c.failures, [2]int{at, len(b)})
		}
		b = append(b, '}')
	}
	b = listEnd(b, len(c.order))

	// The schedule members are written as the build reads them: a
	// generated schedule (policy or priority) ignores fup and builds at
	// least one channel, an explicit one ignores extraIdle and fails on any
	// channel count but 0 (one) and 1.
	sc := &s.Schedule
	extraIdle, channels, fup := sc.ExtraIdle, cmp.Or(sc.Channels, 1), sc.Fup
	if sc.Policy != "" || len(sc.Priority) > 0 {
		channels, fup = max(sc.Channels, 1), 0
	} else {
		extraIdle = 0
	}
	b = append(b, `,"Schedule":{"Policy":`...)
	b = appendJSONString(b, sc.Policy)
	b = append(b, `,"Priority":`...)
	b = appendStrings(b, sc.Priority)
	b = append(b, `,"ExtraIdle":`...)
	b = strconv.AppendInt(b, int64(extraIdle), 10)
	b = append(b, `,"Channels":`...)
	b = strconv.AppendInt(b, int64(channels), 10)
	b = append(b, `,"Fup":`...)
	b = strconv.AppendInt(b, int64(fup), 10)
	b = append(b, `,"Slots":`...)
	for i, si := range c.slots {
		tr := &slots[si]
		b = listSep(b, i)
		b = append(b, `{"Slot":`...)
		b = strconv.AppendInt(b, int64(tr.Slot), 10)
		b = append(b, `,"From":`...)
		b = appendJSONString(b, tr.From)
		b = append(b, `,"To":`...)
		b = appendJSONString(b, tr.To)
		b = append(b, `,"Source":`...)
		b = appendJSONString(b, tr.Source)
		b = append(b, '}')
	}
	b = listEnd(b, len(c.slots))

	b = append(b, `},"Is":`...)
	b = strconv.AppendInt(b, int64(cmp.Or(s.ReportingInterval, 4)), 10)
	b = append(b, `,"TTL":`...)
	b = strconv.AppendInt(b, int64(s.TTL), 10)
	b = append(b, `,"Fdown":`...)
	b = strconv.AppendInt(b, int64(s.Fdown), 10)
	b = append(b, `,"Bits":`...)
	b = strconv.AppendInt(b, int64(s.Bits()), 10)
	b = append(b, `,"Sources":`...)
	c.sources = append(c.sources, s.Sources...)
	slices.Sort(c.sources)
	if len(c.sources) == 0 {
		b = append(b, "[]"...) // an empty list, never nil
	} else {
		b = appendStrings(b, c.sources)
	}
	c.b = append(b, '}')
	return c.b, nil
}

// listSep opens a JSON array before its first element and separates the
// others.
func listSep(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '[')
	}
	return append(b, ',')
}

// listEnd closes a JSON array of n elements; with none it writes null,
// as encoding/json writes a nil slice.
func listEnd(b []byte, n int) []byte {
	if n == 0 {
		return append(b, "null"...)
	}
	return append(b, ']')
}

// appendStrings appends ss as a JSON array of strings, null when empty.
func appendStrings(b []byte, ss []string) []byte {
	for i, x := range ss {
		b = listSep(b, i)
		b = appendJSONString(b, x)
	}
	return listEnd(b, len(ss))
}
