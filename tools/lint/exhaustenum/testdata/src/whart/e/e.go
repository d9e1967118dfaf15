package e

import "wirelesshart/internal/topology"

// Measure is a local string-valued enum.
type Measure string

const (
	Reachability Measure = "reachability"
	Delay        Measure = "delay"
	Utilization  Measure = "utilization"
	// Util is a legacy alias: same value as Utilization, so covering
	// either name covers the member.
	Util Measure = "utilization"
)

func missingMember(k topology.NodeKind) string {
	switch k { // want `switch over topology.NodeKind is not exhaustive and has no default clause: missing Gateway`
	case topology.FieldDevice:
		return "field-device"
	}
	return ""
}

func missingTwo(m Measure) int {
	switch m { // want `switch over Measure is not exhaustive and has no default clause: missing Delay, Util`
	case Reachability:
		return 1
	}
	return 0
}

func defaultClause(k topology.NodeKind) string {
	switch k { // a default keeps new members from silently falling through
	case topology.FieldDevice:
		return "field-device"
	default:
		return "other"
	}
}

func fullCoverage(k topology.NodeKind) string {
	switch k {
	case topology.FieldDevice:
		return "field-device"
	case topology.Gateway:
		return "gateway"
	}
	return ""
}

func aliasCoverage(m Measure) int {
	switch m { // Util aliases Utilization, so all three values are covered
	case Reachability, Delay, Util:
		return 1
	}
	return 0
}

func nonConstantCase(m Measure, other Measure) int {
	switch m { // non-constant case: coverage is not decidable, stay silent
	case other:
		return 1
	}
	return 0
}

func notAnEnum(x int) int {
	switch x { // plain int is not an enum type
	case 1:
		return 1
	}
	return 0
}

type once int

const only once = 1

func singleMember(o once) int {
	switch o { // fewer than two members: not an enum
	case only:
		return 1
	}
	return 0
}
