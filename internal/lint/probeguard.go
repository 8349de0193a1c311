package lint

import (
	"sort"
	"strings"
)

// ProbeGuard enforces the probe contract of internal/crashexplore: every
// durability edge — a request acknowledged, bytes hitting media, a
// write-back flight, a log commit — must emit the matching sim probe.
// crashexplore enumerates crash points by probe index; a durability edge
// with no probe is a crash point the explorer can never cut at, so its
// survival audit silently under-counts.
//
// Three whole-program rules, all resolved over the call graph (static
// calls, contained literals, RTA interface dispatch):
//
//  1. Completion probes. Every blockdev.Device implementation must reach
//     sim.Env.EmitProbe with ProbeAck or ProbeMediaWrite somewhere in the
//     union closure of its methods. Pure relays satisfy this transitively
//     (their closure includes the wrapped device's emission); a device that
//     is genuinely outside the measured world carries //lint:allow
//     probeguard <reason> at the type declaration.
//
//  2. Write-back pairing. A package that emits ProbeWBStart must also emit
//     ProbeWBEnd (and vice versa): an unpaired flight makes the explorer's
//     in-flight accounting undercount torn write-backs.
//
//  3. Commit probes. Every durable-log type (method set with Append and
//     Flush(*sim.Proc) error) must reach a ProbeCommit emission from those
//     two methods: a flushed-but-unprobed commit is an acknowledged
//     durability promise the crash explorer cannot test.
var ProbeGuard = &Analyzer{
	Name:             "probeguard",
	Doc:              "every ack/media-write/write-back/commit durability edge must emit the matching sim probe",
	Run:              runProbeGuard,
	NeedWholeProgram: true,
}

// deviceShape is the structural signature of blockdev.Device.
var deviceShape = map[string]string{
	"ID":      "func() tracklog/internal/blockdev.DevID",
	"Sectors": "func() int64",
	"Read":    "func(*tracklog/internal/sim.Proc, int64, int) ([]byte, error)",
	"Write":   "func(*tracklog/internal/sim.Proc, int64, int, []byte) error",
}

// durableLogShape is the structural signature of a durable log's commit
// surface (wal.Log and anything shaped like it).
var durableLogShape = map[string]string{
	"Append": "func(*tracklog/internal/sim.Proc, []byte) (int64, error)",
	"Flush":  "func(*tracklog/internal/sim.Proc) error",
}

func runProbeGuard(pass *Pass) error {
	if !strings.HasPrefix(pass.Path, "tracklog") {
		return nil
	}
	prog := pass.Prog

	for _, tid := range sortedTypeIDs(prog, pass.CurPkg) {
		ti := prog.Types[tid]

		if ti.Implements(deviceShape) {
			kinds := closureProbeKinds(prog, methodRoots(ti))
			if !kinds["ProbeAck"] && !kinds["ProbeMediaWrite"] && !kinds["?"] {
				pass.Reportf(ti.Pos,
					"blockdev.Device implementation %s never reaches sim.EmitProbe(ProbeAck or ProbeMediaWrite): its durability edges are invisible to crashexplore (//lint:allow probeguard <reason> if the device is outside the measured world)",
					ti.Name)
			}
		}

		if ti.Implements(durableLogShape) {
			roots := []string{ti.Methods["Append"], ti.Methods["Flush"]}
			kinds := closureProbeKinds(prog, roots)
			if !kinds["ProbeCommit"] && !kinds["?"] {
				pass.Reportf(ti.Pos,
					"durable log %s (Append/Flush) never reaches sim.EmitProbe(ProbeCommit): flushed commits are crash points the explorer cannot cut at",
					ti.Name)
			}
		}
	}

	checkWBPairing(pass)
	return nil
}

// sortedTypeIDs returns the IDs of every named type declared in pkg, in
// deterministic order.
func sortedTypeIDs(prog *Program, pkg *Package) []string {
	var out []string
	for id, ti := range prog.Types {
		if ti.Pkg == pkg {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// methodRoots returns the closure roots of a type: every declared or
// promoted method body, in deterministic order.
func methodRoots(ti *TypeInfo) []string {
	var roots []string
	for _, id := range ti.Methods {
		roots = append(roots, id)
	}
	sort.Strings(roots)
	return roots
}

// closureProbeKinds returns the set of probe-kind constant names emitted
// anywhere in the call-graph closure of roots ("?" for computed kinds).
func closureProbeKinds(prog *Program, roots []string) map[string]bool {
	kinds := make(map[string]bool)
	for fid := range prog.Reach(roots, true) {
		fi, ok := prog.Funcs[fid]
		if !ok {
			continue
		}
		for _, pe := range fi.ProbeEmits {
			kinds[pe.Kind] = true
		}
	}
	return kinds
}

// checkWBPairing reports unpaired write-back probes at package granularity:
// the start and end of a flight are emitted by the same layer, so a package
// emitting one without the other has lost an edge.
func checkWBPairing(pass *Pass) {
	prog := pass.Prog
	emitted := make(map[string][]ProbeEmit) // kind -> sites in this package
	for _, fid := range prog.FuncsOfPackage(pass.CurPkg) {
		for _, pe := range prog.Funcs[fid].ProbeEmits {
			emitted[pe.Kind] = append(emitted[pe.Kind], pe)
		}
	}
	if emitted["?"] != nil {
		return // computed kinds: pairing is not statically decidable
	}
	report := func(have, want string) {
		sites := emitted[have]
		sort.Slice(sites, func(i, j int) bool { return sites[i].Pos < sites[j].Pos })
		pass.Reportf(sites[0].Pos,
			"package emits sim.%s but never sim.%s: an unpaired write-back flight undercounts torn write-backs in crashexplore",
			have, want)
	}
	if len(emitted["ProbeWBStart"]) > 0 && len(emitted["ProbeWBEnd"]) == 0 {
		report("ProbeWBStart", "ProbeWBEnd")
	}
	if len(emitted["ProbeWBEnd"]) > 0 && len(emitted["ProbeWBStart"]) == 0 {
		report("ProbeWBEnd", "ProbeWBStart")
	}
}
