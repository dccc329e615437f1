package spec

// BuildForTest builds a fresh, unshared table for d, so tests can
// compare the shared tables against a clean build.
func BuildForTest(d Dialect) *Spec {
	if d == OpenACC {
		return buildOpenACC()
	}
	return buildOpenMP()
}
