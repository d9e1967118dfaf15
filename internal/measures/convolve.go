package measures

// convolveTruncated returns the first n entries of the discrete
// convolution of a and b,
//
//	out[k] = sum_i a[i] * b[k-i],  k < n,
//
// zero-padded where the full convolution is shorter and empty for n <= 0.
// For cycle probability functions this is the distribution of the sum of
// two independent cycle counts; the tail mass beyond n is dropped,
// matching the paper's treatment of messages that would arrive after the
// reporting interval (they are discarded). Each entry adds its terms in
// ascending i.
func convolveTruncated(a, b []float64, n int) []float64 {
	out := make([]float64, max(n, 0))
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j := 0; j < len(b) && i+j < n; j++ {
			out[i+j] += ai * b[j]
		}
	}
	return out
}
