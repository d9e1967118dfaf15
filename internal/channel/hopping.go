package channel

import (
	"fmt"
	"math/rand"
)

// NumChannels is the number of non-overlapping 2.4 GHz frequency channels
// WirelessHART divides the ISM band into (IEEE 802.15.4 channels 11-26).
const NumChannels = 16

// HopSequence generates the pseudo-random channel hopping pattern used per
// slot, skipping blacklisted channels. It mirrors the standard's behaviour
// that motivates the link model's high recovery probability: after a bad
// slot the next transmission almost surely lands on a different, healthy
// channel.
type HopSequence struct {
	rng       *rand.Rand
	blacklist *Blacklist
}

// NewHopSequence returns a hop sequence driven by rng over the channels not
// excluded by blacklist. blacklist may be nil for no exclusions; rng must
// not be nil.
func NewHopSequence(rng *rand.Rand, blacklist *Blacklist) (*HopSequence, error) {
	if rng == nil {
		return nil, fmt.Errorf("channel: hop sequence requires a random source")
	}
	return &HopSequence{rng: rng, blacklist: blacklist}, nil
}

// Next returns the channel index for the next slot, uniformly random over
// the active (non-blacklisted) channels. If every channel is blacklisted it
// returns an error.
func (h *HopSequence) Next() (int, error) {
	active := h.activeChannels()
	if len(active) == 0 {
		return 0, fmt.Errorf("channel: all %d channels blacklisted", NumChannels)
	}
	return active[h.rng.Intn(len(active))], nil
}

func (h *HopSequence) activeChannels() []int {
	out := make([]int, 0, NumChannels)
	for c := 0; c < NumChannels; c++ {
		if h.blacklist != nil && h.blacklist.Contains(c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Blacklist tracks channels banned by the network manager after sustained
// interference (paper Section II). The zero value is an empty blacklist.
type Blacklist struct {
	banned map[int]bool
}

// NewBlacklist returns an empty blacklist.
func NewBlacklist() *Blacklist { return &Blacklist{banned: map[int]bool{}} }

// Ban adds a channel to the blacklist. Channel indices outside [0,
// NumChannels) are rejected.
func (b *Blacklist) Ban(ch int) error {
	if ch < 0 || ch >= NumChannels {
		return fmt.Errorf("channel: index %d out of [0,%d)", ch, NumChannels)
	}
	if b.banned == nil {
		b.banned = map[int]bool{}
	}
	b.banned[ch] = true
	return nil
}

// Contains reports whether the channel is blacklisted.
func (b *Blacklist) Contains(ch int) bool { return b.banned[ch] }
