package m

import (
	"wirelesshart/internal/cluster"
	"wirelesshart/internal/engine"
	"wirelesshart/internal/link"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
)

func bad() {
	link.New(0.1, 0.9)        // want `result of New discarded; it must be checked`
	_, _ = link.New(0.1, 0.9) // want `error result of New assigned to blank identifier`

	var st pathmodel.Structure
	mdl, _ := st.Bind(nil) // want `error result of Bind assigned to blank identifier`
	_ = mdl

	pathmodel.SolveBatch(nil)               // want `result of SolveBatch discarded; it must be checked`
	results, _ := pathmodel.SolveBatch(nil) // want `error result of SolveBatch assigned to blank identifier`
	_ = results

	link.NewKState(nil, nil)          // want `result of NewKState discarded; it must be checked`
	link.NewUniformMixing(0.9, nil)   // want `result of NewUniformMixing discarded; it must be checked`
	ks, _ := link.NewKState(nil, nil) // want `error result of NewKState assigned to blank identifier`
	_ = ks
	link.FromModel(link.Model{}) // want `result of FromModel discarded; it must be checked`

	var s spec.Spec
	s.ResolveLinks(nil)              // want `result of ResolveLinks discarded; it must be checked`
	s.BuildResolved(nil)             // want `result of BuildResolved discarded; it must be checked`
	built, _ := s.BuildResolved(nil) // want `error result of BuildResolved assigned to blank identifier`
	_ = built

	cluster.NewRing("a", nil, 0)            // want `result of NewRing discarded; it must be checked`
	ring, _ := cluster.NewRing("a", nil, 0) // want `error result of NewRing assigned to blank identifier`
	_ = ring
	cluster.WriteSnapshot(nil, nil) // want `result of WriteSnapshot discarded; it must be checked`
	cluster.ReadSnapshot(nil)       // want `result of ReadSnapshot discarded; it must be checked`
	var eng engine.Engine
	eng.SaveSnapshot(nil)        // want `result of SaveSnapshot discarded; it must be checked`
	eng.LoadSnapshot(nil)        // want `result of LoadSnapshot discarded; it must be checked`
	_, _ = eng.LoadSnapshot(nil) // want `error result of LoadSnapshot assigned to blank identifier`

	go link.NewKState(nil, nil) // want `result of NewKState discarded by go statement`
	defer link.New(0.1, 0.9)    // want `result of New discarded by defer statement`
}

func badDistributed(eng *engine.Engine, cl *cluster.Client, peer cluster.Member) {
	eng.Evaluate(nil, nil)               // want `result of Evaluate discarded; it must be checked`
	eng.EvaluatePeer(nil, nil)           // want `result of EvaluatePeer discarded; it must be checked`
	eng.EvaluateBatch(nil, nil)          // want `result of EvaluateBatch discarded; it must be checked`
	cl.Post(nil, peer, "/evaluate", nil) // want `result of Post discarded; it must be checked`
	res, _ := eng.Evaluate(nil, nil)     // want `error result of Evaluate assigned to blank identifier`
	_ = res
	body, _ := cl.Post(nil, peer, "/evaluate", nil) // want `error result of Post assigned to blank identifier`
	_ = body
}

func goodDistributed(eng *engine.Engine, cl *cluster.Client, peer cluster.Member) error {
	res, err := eng.Evaluate(nil, nil)
	if err != nil {
		return err
	}
	_ = res
	batch, err := eng.EvaluateBatch(nil, nil)
	if err != nil {
		return err
	}
	_ = batch
	body, err := cl.Post(nil, peer, "/evaluate", nil)
	_ = body
	return err
}

func good() error {
	ks, err := link.NewKState(nil, nil)
	if err != nil {
		return err
	}
	_ = ks
	var st pathmodel.Structure
	mdl, err := st.Bind(nil)
	_ = mdl
	if err != nil {
		return err
	}
	var s spec.Spec
	built, err := s.BuildResolved(s.ResolveLinks(nil))
	_ = built
	return err
}
