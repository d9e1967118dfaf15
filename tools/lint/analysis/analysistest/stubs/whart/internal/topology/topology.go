// Stub of the real internal/topology surface the analyzers watch.
package topology

// NodeKind mirrors the real node-role enum.
type NodeKind int

const (
	// FieldDevice sources and relays messages.
	FieldDevice NodeKind = iota + 1
	// Gateway is the network's sink.
	Gateway
)
