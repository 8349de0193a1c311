package tracklog_test

// Regenerate with:
//
//	go test -bench=Catalogue -benchtime=1x .

import (
	"testing"

	"tracklog/internal/experiments"
)

// BenchmarkCatalogue runs every section of the evaluation catalogue at the
// quick sizing and seed 1, one sub-benchmark per section key, so ns/op is
// the host cost of simulating that section. The sections' numbers are
// cmd/reproduce's to print; this reports none of them.
func BenchmarkCatalogue(b *testing.B) {
	sz := experiments.QuickSizing()
	for _, s := range experiments.Catalogue {
		b.Run(s.Key, func(b *testing.B) {
			for range b.N {
				if _, _, err := s.Run(sz, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
