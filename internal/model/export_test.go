package model

// FeatureExtractions reports how many extractions the shared feature
// memo has run in this process.
func FeatureExtractions() int64 { return sharedFeatures.extractions.Load() }

// ResetFeatureMemo empties the shared feature memo, so a test can
// count the extractions of a workload from a cold start.
func ResetFeatureMemo() {
	m := sharedFeatures
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.entries)
	clear(m.ring[:])
	m.next = 0
}
