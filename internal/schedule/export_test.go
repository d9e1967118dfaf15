package schedule

// SlotEntries returns the slot table's transmissions of a 1-based slot,
// for the external tests.
func SlotEntries(s *Schedule, slot int) []Entry { return s.slots[slot-1] }
