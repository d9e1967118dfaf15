package core

import (
	"testing"

	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/topology"
)

// benchSetup builds the paper's typical network with schedule eta_a for
// benchmarks (the *testing.B twin of typicalSetup).
func benchSetup(b *testing.B) (*topology.Network, []topology.NodeID, *schedule.Schedule) {
	b.Helper()
	net, sources, err := topology.TypicalNetwork()
	if err != nil {
		b.Fatal(err)
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		b.Fatal(err)
	}
	etaA, err := schedule.BuildPriority(routes, schedule.ShortestFirst(routes), 1)
	if err != nil {
		b.Fatal(err)
	}
	return net, sources, etaA
}

func benchModel(b *testing.B, avail float64) link.Model {
	b.Helper()
	m, err := link.FromAvailability(avail, link.DefaultRecoveryProb)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkSensitivityAnalysis measures the full per-link perturbation
// sweep over the typical 10-node network: 1 baseline + 11 perturbed
// network analyses of 10 paths each.
func BenchmarkSensitivityAnalysis(b *testing.B) {
	net, _, etaA := benchSetup(b)
	a, err := New(net, etaA, WithUniformLinkProcess(benchModel(b, 0.83)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SensitivityAnalysis(0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// mapStructCache is a minimal StructureCache for benchmarks: an unbounded
// map, no eviction, no locking (the benchmarks are single-goroutine).
type mapStructCache map[string]*pathmodel.Structure

func (c mapStructCache) GetStructure(key string) (*pathmodel.Structure, bool) {
	s, ok := c[key]
	return s, ok
}
func (c mapStructCache) PutStructure(key string, s *pathmodel.Structure) { c[key] = s }

// BenchmarkInjectionAnalyze measures repeated failure-injection solves:
// each iteration analyzes the typical network with a fresh DownDuring
// window on the bottleneck link — the robustness-scenario hot path.
// "cold" rebuilds everything per scenario; "structcached" shares path
// structures across scenarios the way the evaluation engine does, so each
// injection costs one value bind per path instead of an Algorithm 1 run
// plus a CSR compile.
func BenchmarkInjectionAnalyze(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "cold"
		if cached {
			name = "structcached"
		}
		b.Run(name, func(b *testing.B) {
			net, _, etaA := benchSetup(b)
			m := benchModel(b, 0.83)
			n3, ok := net.NodeByName("n3")
			if !ok {
				b.Fatal("no n3")
			}
			gw, err := net.Gateway()
			if err != nil {
				b.Fatal(err)
			}
			e3, ok := net.LinkBetween(n3.ID, gw)
			if !ok {
				b.Fatal("no n3-G link")
			}
			structs := mapStructCache{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := i % 20
				av, err := m.DownDuring(from, from+20, m.Steady())
				if err != nil {
					b.Fatal(err)
				}
				opts := []Option{
					WithUniformLinkProcess(m),
					WithLinkAvailability(e3.ID, av),
				}
				if cached {
					opts = append(opts, WithStructureCache(structs))
				}
				a, err := New(net, etaA, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Analyze(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
