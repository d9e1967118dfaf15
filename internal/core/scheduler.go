package core

import (
	"errors"
	"fmt"

	"wirelesshart/internal/schedule"
	"wirelesshart/internal/topology"
)

// Objective scores a network analysis; lower is better. Used by
// OptimizeSchedule to search priority orders.
type Objective func(*NetworkAnalysis) float64

// MaxExpectedDelay returns the bottleneck expected delay — the paper's
// implicit eta_b goal of balancing delays (Section VI-B).
func MaxExpectedDelay(na *NetworkAnalysis) float64 {
	var worst float64
	for _, pa := range na.Paths {
		if pa.ExpectedDelayMS > worst {
			worst = pa.ExpectedDelayMS
		}
	}
	return worst
}

// OptimizeResult is the outcome of a schedule search.
type OptimizeResult struct {
	// Order is the best priority order found.
	Order []topology.NodeID
	// Schedule is the realized schedule.
	Schedule *schedule.Schedule
	// Score is the objective value of the best schedule.
	Score float64
	// Evaluations counts objective evaluations performed.
	Evaluations int
}

// OptimizeSchedule searches priority orders by steepest-descent pairwise
// swaps from the shortest-first and longest-first seeds, evaluating each
// candidate schedule with the given analyzer options and objective. The
// search is deterministic; maxEvals bounds the number of objective
// evaluations (0 selects a default of 2000).
func OptimizeSchedule(net *topology.Network, extraIdle int, objective Objective, maxEvals int, opts ...Option) (*OptimizeResult, error) {
	if net == nil {
		return nil, errors.New("core: network is required")
	}
	if objective == nil {
		return nil, errors.New("core: objective is required")
	}
	if maxEvals == 0 {
		maxEvals = 2000
	}
	if maxEvals < 1 {
		return nil, fmt.Errorf("core: maxEvals %d must be positive", maxEvals)
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		return nil, err
	}

	res := &OptimizeResult{Score: -1}
	evaluate := func(order []topology.NodeID) (float64, *schedule.Schedule, error) {
		if res.Evaluations >= maxEvals {
			return 0, nil, errBudget
		}
		res.Evaluations++
		s, err := schedule.Build(routes, order, 1, extraIdle)
		if err != nil {
			return 0, nil, err
		}
		a, err := New(net, s, opts...)
		if err != nil {
			return 0, nil, err
		}
		na, err := a.Analyze()
		if err != nil {
			return 0, nil, err
		}
		return objective(na), s, nil
	}

	seeds := [][]topology.NodeID{
		schedule.ShortestFirst(routes),
		schedule.LongestFirst(routes),
	}
	for _, seed := range seeds {
		order := append([]topology.NodeID(nil), seed...)
		score, s, err := evaluate(order)
		if err != nil {
			if errors.Is(err, errBudget) {
				break
			}
			return nil, err
		}
		if res.Score < 0 || score < res.Score {
			res.Score = score
			res.Order = append([]topology.NodeID(nil), order...)
			res.Schedule = s
		}
		// Steepest-descent over pairwise swaps.
		improved := true
		for improved {
			improved = false
			bestScore, bestI, bestJ := score, -1, -1
			var bestSched *schedule.Schedule
			for i := 0; i < len(order); i++ {
				for j := i + 1; j < len(order); j++ {
					order[i], order[j] = order[j], order[i]
					cand, s2, err := evaluate(order)
					order[i], order[j] = order[j], order[i]
					if err != nil {
						if errors.Is(err, errBudget) {
							goto done
						}
						return nil, err
					}
					if cand < bestScore {
						bestScore, bestI, bestJ, bestSched = cand, i, j, s2
					}
				}
			}
			if bestI >= 0 {
				order[bestI], order[bestJ] = order[bestJ], order[bestI]
				score = bestScore
				improved = true
				if score < res.Score {
					res.Score = score
					res.Order = append([]topology.NodeID(nil), order...)
					res.Schedule = bestSched
				}
			}
		}
	}
done:
	if res.Schedule == nil {
		return nil, errors.New("core: optimization produced no schedule")
	}
	return res, nil
}

var errBudget = errors.New("core: evaluation budget exhausted")
