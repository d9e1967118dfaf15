package channel

// LinkBudget bundles the physical-layer pipeline of paper Sections III
// and VI-E: from a measured SNR, derive the OQPSK BER (Eq. 1) and the
// message failure probability (Eq. 2).
type LinkBudget struct {
	// EbN0 is the linear signal-to-noise ratio per bit.
	EbN0 float64
	// BER is the resulting OQPSK bit error rate.
	BER float64
	// MessageBits is the message length used for the failure probability.
	MessageBits int
	// FailureProb is p_fl = 1-(1-BER)^MessageBits.
	FailureProb float64
}

// BudgetFromEbN0 computes the link budget for a known linear Eb/N0 and
// message length.
func BudgetFromEbN0(ebN0 float64, messageBits int) (LinkBudget, error) {
	ber, err := BEROQPSK(ebN0)
	if err != nil {
		return LinkBudget{}, err
	}
	pfl, err := MessageFailureProb(ber, messageBits)
	if err != nil {
		return LinkBudget{}, err
	}
	return LinkBudget{EbN0: ebN0, BER: ber, MessageBits: messageBits, FailureProb: pfl}, nil
}
