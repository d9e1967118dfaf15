package channel

import (
	"math/rand"
	"testing"
)

func TestHopSequenceUniform(t *testing.T) {
	h, err := NewHopSequence(rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, NumChannels)
	const n = 16000
	for i := 0; i < n; i++ {
		ch, err := h.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch < 0 || ch >= NumChannels {
			t.Fatalf("channel %d out of range", ch)
		}
		counts[ch]++
	}
	for ch, c := range counts {
		if c < n/NumChannels/2 || c > n/NumChannels*2 {
			t.Errorf("channel %d hit %d times, expected ~%d", ch, c, n/NumChannels)
		}
	}
}

func TestHopSequenceSkipsBlacklisted(t *testing.T) {
	bl := NewBlacklist()
	for ch := 0; ch < 8; ch++ {
		if err := bl.Ban(ch); err != nil {
			t.Fatal(err)
		}
	}
	h, err := NewHopSequence(rand.New(rand.NewSource(3)), bl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ch, err := h.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch < 8 {
			t.Fatalf("hop landed on blacklisted channel %d", ch)
		}
	}
}

func TestHopSequenceAllBanned(t *testing.T) {
	bl := NewBlacklist()
	for ch := 0; ch < NumChannels; ch++ {
		if err := bl.Ban(ch); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := NewHopSequence(rand.New(rand.NewSource(3)), bl)
	if _, err := h.Next(); err == nil {
		t.Error("all channels banned should error")
	}
}

func TestHopSequenceNilRNG(t *testing.T) {
	if _, err := NewHopSequence(nil, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestBlacklistZeroValue(t *testing.T) {
	var b Blacklist
	if b.Contains(3) {
		t.Error("zero-value blacklist should be empty")
	}
	if err := b.Ban(3); err != nil {
		t.Fatalf("Ban on zero value: %v", err)
	}
	if !b.Contains(3) {
		t.Error("Ban(3) then Contains(3) = false")
	}
}

func TestBlacklistBanRange(t *testing.T) {
	b := NewBlacklist()
	if err := b.Ban(-1); err == nil {
		t.Error("Ban(-1) should error")
	}
	if err := b.Ban(NumChannels); err == nil {
		t.Error("Ban(16) should error")
	}
}
