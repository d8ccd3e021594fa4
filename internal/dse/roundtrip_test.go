package dse

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/llvm/parser"
	"repro/internal/polybench"
)

// TestPostTranslateTextRoundTrips pins the printer/parser pair on the
// module incremental replays rebuild from a stored translate record: for
// every kernel under every partitioned configuration, print→parse→print of
// the freshly translated module is the identity. Partition directives
// land in function attributes whose values the printer quotes with
// escapes, which the parser must decode.
func TestPostTranslateTextRoundTrips(t *testing.T) {
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range Space() {
			if c.D.Partition == nil {
				continue
			}
			var text string
			opts := flow.Options{Observer: func(stage, pass, ir string) {
				if stage == "adaptor" {
					text = ir // the module entering the adaptor: translate's output
				}
			}}
			if _, err := flow.AdaptorFlowWith(k.Build(s), k.Name, c.D, hls.DefaultTarget(), opts); err != nil {
				t.Fatalf("%s %s: %v", k.Name, c.Label, err)
			}
			lm, err := parser.Parse(text)
			if err != nil {
				t.Fatalf("%s %s: post-translate text does not parse: %v", k.Name, c.Label, err)
			}
			if got := lm.Print(); got != text {
				t.Fatalf("%s %s: print→parse→print changed the module", k.Name, c.Label)
			}
		}
	}
}
