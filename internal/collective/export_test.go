package collective

// Hooks for the external test package, which can import internal/synth.
var (
	EncodeSchedule = encodeSchedule
	DecodeSchedule = decodeSchedule
)

// Stamp binds s to its graph's current fingerprint, as a cache load does.
func (s *Schedule) Stamp() { s.stamp() }
