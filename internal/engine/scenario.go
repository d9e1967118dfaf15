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
	"bytes"
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

	"wirelesshart/internal/spec"
)

// Key returns the deterministic cache key of a scenario: the hex SHA-256
// of its canonical form. Two specs that differ only in declaration order,
// field choice (BER vs the equivalent p_fl) or spelled-out defaults share
// a key; any semantic change produces a new one.
func Key(s *spec.Spec) (string, error) {
	c := keyBufs.Get().(*keyBuf)
	defer c.release()
	_, key, _, err := c.keyAndBase(s)
	return key, err
}

// digest is a SHA-256 sum: a scenario's base digest.
type digest = [sha256.Size]byte

// keyAndBase returns the link resolution of s (valid until c is released,
// and what spec.BuildResolved builds s from), its key and its base digest,
// all from one canonical pass. The base digest is the SHA-256 of the
// canonical form with every "Failure" member written as "": the sum
// behind the key of s with its failures cleared. (Links sort by their
// endpoints first, which are unique in any spec Build accepts, so clearing
// failures moves no link.) Two specs with one base digest realize the same
// intact network, so the build of either is the spec.Built.Overlay of the
// other.
func (c *keyBuf) keyAndBase(s *spec.Spec) ([]spec.ResolvedLink, string, digest, error) {
	links, b, err := c.canonicalize(s)
	if err != nil {
		return nil, "", digest{}, err
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
	return links, hex.EncodeToString(sum[:]), base, nil
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
//   - Each link is written from the resolution the build reads: a
//     two-state link as its model (p_fl, p_rc), so a link declared via BER
//     and one via the equivalent failure probability hash identically,
//     while any numeric change misses. A
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

// keyBuf holds the scratch of one Key call or one evaluation's keys: the
// resolved links, the canonical text, the link and slot orders and the
// sources. Buffers are pooled, so a warm key allocates only what resolving
// its links does.
type keyBuf struct {
	links    []spec.ResolvedLink // every key's resolution, appended in turn
	ends     [][2]string         // the key's links' endpoints in lexicographic order
	b        []byte
	order    []int32  // link indices in canonical order
	slots    []int32  // explicit-slot indices in canonical order
	failures [][2]int // the spans of b holding a non-empty "Failure" value
	sources  []string
	pfl, prc floatText
	h        hash.Hash // the base digest's hasher
	sum      []byte    // the base digest's scratch
}

var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

// release drops c's references into the specs it canonicalized and
// recycles it.
func (c *keyBuf) release() {
	clear(c.links)
	clear(c.ends)
	clear(c.sources)
	c.links = c.links[:0]
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

// canonicalize resolves the links of s onto c.links and writes the
// canonical form of s into c; it returns the resolution and the form.
func (c *keyBuf) canonicalize(s *spec.Spec) ([]spec.ResolvedLink, []byte, error) {
	if s == nil {
		return nil, nil, fmt.Errorf("engine: nil scenario")
	}
	from := len(c.links)
	c.links = s.ResolveLinks(c.links)
	links := c.links[from:]
	c.order, c.ends, c.failures = c.order[:0], c.ends[:0], c.failures[:0]
	for i := range links {
		l := &links[i]
		if l.Err != nil {
			return nil, nil, fmt.Errorf("engine: link %q-%q: %w", l.A, l.B, l.Err)
		}
		c.ends = append(c.ends, [2]string{min(l.A, l.B), max(l.A, l.B)})
		c.order = append(c.order, int32(i))
	}
	// Only duplicate links tie on endpoints and failure, and Build rejects
	// those; the declaration index still makes the order total.
	slices.SortFunc(c.order, func(i, j int32) int {
		x, y := &c.ends[i], &c.ends[j]
		if r := strings.Compare(x[0], y[0]); r != 0 {
			return r
		}
		if r := strings.Compare(x[1], y[1]); r != 0 {
			return r
		}
		var fx, fy [48]byte // the longest window text fits
		r := bytes.Compare(appendFailure(fx[:0], links[i].Failure), appendFailure(fy[:0], links[j].Failure))
		return cmp.Or(r, cmp.Compare(i, j))
	})
	slots := s.Schedule.Slots
	c.slots = c.slots[:0]
	for i := range slots {
		c.slots = append(c.slots, int32(i))
	}
	slices.SortFunc(c.slots, func(i, j int32) int {
		x, y := &slots[i], &slots[j]
		return cmp.Or(cmp.Compare(x.Slot, y.Slot), strings.Compare(x.Source, y.Source), cmp.Compare(i, j))
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
		l := &links[li]
		b = listSep(b, i)
		b = append(b, `{"A":`...)
		b = appendJSONString(b, c.ends[li][0])
		b = append(b, `,"B":`...)
		b = appendJSONString(b, c.ends[li][1])
		b = append(b, `,"PFl":`...)
		b = c.pfl.append(b, l.Model.FailureProb())
		b = append(b, `,"PRc":`...)
		b = c.prc.append(b, l.Model.RecoveryProb())
		if l.KState != nil {
			b = append(b, `,"Fading":`...)
			b = appendJSONString(b, string(l.KState.AppendKey(nil)))
		}
		b = append(b, `,"Failure":"`...)
		at := len(b) - 1
		b = append(appendFailure(b, l.Failure), '"')
		if l.Failure != nil {
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
	return links, c.b, nil
}

// appendFailure appends the key text of a resolved (kind-checked) failure:
// empty without one, else "permanent" or "window:from:to".
func appendFailure(b []byte, f *spec.Failure) []byte {
	switch {
	case f == nil:
		return b
	case f.Kind == "permanent":
		return append(b, "permanent"...)
	}
	b = append(b, "window:"...)
	b = strconv.AppendInt(b, int64(f.FromSlot), 10)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(f.ToSlot), 10)
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
