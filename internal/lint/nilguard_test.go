package lint

import "testing"

func TestNilGuardConsumer(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/stddisk", NilGuard)
}
