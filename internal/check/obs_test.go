package check

import (
	"testing"

	"repro/internal/core"
)

func TestObsInvariance(t *testing.T) {
	if err := PolicyEquivalence("gzip", core.Options{Scale: 100_000}, nil, ObsVariants()); err != nil {
		t.Fatal(err)
	}
}

func TestObsArtifactInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the artifact bundle twice")
	}
	if err := ObsArtifactInvariance(100_000, []string{"gzip", "perlbmk"}); err != nil {
		t.Fatal(err)
	}
}
