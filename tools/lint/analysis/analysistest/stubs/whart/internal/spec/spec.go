// Stub of the real internal/spec surface the analyzers watch.
package spec

// Spec is the scenario specification stub.
type Spec struct{}

// Built is the realized-network stub.
type Built struct{}

// ResolvedLink is the resolved-link stub.
type ResolvedLink struct{}

// ResolveLinks mirrors the one link resolver.
func (s *Spec) ResolveLinks(dst []ResolvedLink) []ResolvedLink {
	return dst
}

// BuildResolved mirrors the build that consumes a resolution.
func (s *Spec) BuildResolved(links []ResolvedLink) (*Built, error) {
	_ = links
	return nil, nil
}
