package pathmodel

import (
	"testing"

	"wirelesshart/internal/link"
)

// benchConfig returns an Is-cycle variant of the Section V-A example path
// (3 hops in slots 3, 6, 7 of a 7-slot frame, homogeneous steady links).
func benchConfig(b *testing.B, is int) Config {
	b.Helper()
	m, err := link.FromAvailability(0.75, link.DefaultRecoveryProb)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Slots: []int{3, 6, 7},
		Fup:   7,
		Is:    is,
		Links: []link.Availability{m.Steady(), m.Steady(), m.Steady()},
	}
}

// BenchmarkPathSolve measures one transient solve of a pre-built
// homogeneous path model (the engine's hot loop) excluding construction.
func BenchmarkPathSolve(b *testing.B) {
	for _, is := range []int{4, 16, 64, 1024} {
		b.Run(map[int]string{4: "Is4", 16: "Is16", 64: "Is64", 1024: "Is1024"}[is], func(b *testing.B) {
			m, err := Build(benchConfig(b, is))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveBatch measures the failure-sweep shape of a batch: 37
// scenarios bound against one 3-hop structure (slots 3, 6, 7 of a 7-slot
// frame, Is=4), each failing one hop during uplink slots [0, 20) over
// steady links of a different quality. Binding happens before the timer.
func BenchmarkSolveBatch(b *testing.B) {
	const scenarios = 37
	st, err := BuildStructure([]int{3, 6, 7}, 7, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]link.Availability, scenarios)
	for k := range batch {
		m, err := link.FromAvailability(0.6+0.01*float64(k), link.DefaultRecoveryProb)
		if err != nil {
			b.Fatal(err)
		}
		window, err := m.DownDuring(0, 20, m.Steady())
		if err != nil {
			b.Fatal(err)
		}
		batch[k] = []link.Availability{m.Steady(), m.Steady(), m.Steady()}
		batch[k][k%3] = window
	}
	models, err := st.BindBatch(batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBatch(models); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathBuildAndSolve includes model construction, the cold-cache
// cost the engine pays on a scenario miss.
func BenchmarkPathBuildAndSolve(b *testing.B) {
	cfg := benchConfig(b, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoalTrajectories measures the full-horizon trajectory recording
// behind the paper's Fig. 6 curves, including the on-demand build of
// Algorithm 1's explicit chain it steps.
func BenchmarkGoalTrajectories(b *testing.B) {
	m, err := Build(benchConfig(b, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.GoalTrajectories(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildStructure measures the structural phase alone for a 3-hop
// path in slots 3, 6, 7 of a 20-slot uplink frame: geometry validation,
// goal ages and state and attempt counts, the cost the engine pays on a
// structure-cache miss before any bind or solve.
func BenchmarkBuildStructure(b *testing.B) {
	for _, is := range []int{4, 64} {
		b.Run(map[int]string{4: "Is4", 64: "Is64"}[is], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildStructure([]int{3, 6, 7}, 20, is, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
