// Package channel models the WirelessHART physical layer as the paper does:
// a binary symmetric channel whose bit error rate follows from the OQPSK
// modulation over an AWGN channel (Section III), plus the 16-channel
// 2.4 GHz hopping machinery with blacklisting that motivates the link
// model's recovery probability.
package channel

import (
	"errors"
	"fmt"
	"math"
)

// DefaultMessageBits is the bit length of a typical WirelessHART MAC-layer
// message: the standard's 127-byte maximum payload (paper Section V-B).
const DefaultMessageBits = 127 * 8

// DefaultBER is the paper's reference bit error rate: over a
// DefaultMessageBits message it gives the reference link quality,
// pi(up) = 0.8304 at p_rc = 0.9 (Section VI).
const DefaultBER = 2e-4

// ErrBadSNR is returned for non-finite or negative linear SNR values.
var ErrBadSNR = errors.New("channel: Eb/N0 must be finite and non-negative")

// BEROQPSK returns the paper's Eq. (1): the bit error rate of OQPSK, the
// WirelessHART (IEEE 802.15.4) radio modulation, over an AWGN channel at
// linear (not dB) Eb/N0,
//
//	BER = 0.5 erfc(sqrt(Eb/N0)).
func BEROQPSK(ebN0 float64) (float64, error) {
	if math.IsNaN(ebN0) || math.IsInf(ebN0, 0) || ebN0 < 0 {
		return 0, fmt.Errorf("%w: %v", ErrBadSNR, ebN0)
	}
	return 0.5 * math.Erfc(math.Sqrt(ebN0)), nil
}

// MessageFailureProb returns the paper's Eq. (2): the probability that a
// message of bits length suffers at least one bit error on a binary
// symmetric channel with the given BER,
//
//	p_fl = 1 - (1-BER)^bits.
func MessageFailureProb(ber float64, bits int) (float64, error) {
	if ber < 0 || ber > 1 || math.IsNaN(ber) {
		return 0, fmt.Errorf("channel: BER %v out of [0,1]", ber)
	}
	if bits < 1 {
		return 0, fmt.Errorf("channel: message must have at least one bit, got %d", bits)
	}
	// Use expm1/log1p for precision at small BER: 1-(1-b)^L =
	// -expm1(L*log1p(-b)).
	return -math.Expm1(float64(bits) * math.Log1p(-ber)), nil
}
