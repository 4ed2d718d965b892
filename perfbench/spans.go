package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/huffduff/huffduff/internal/obs"
)

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{"huffduff", "accel", "nn", "trace", "sym", "telemetry", "store"}

// layerOf maps a span name to the layer whose code the span covers. Spans
// the benchmark opens are named after the layer they call into; spans the
// program opens itself are pipeline stages, except the solve stage, which is
// the solver engine's.
func layerOf(name string) string {
	switch {
	case name == "accel.run":
		return "accel"
	case strings.HasPrefix(name, "nn."):
		return "nn"
	case strings.HasPrefix(name, "trace."):
		return "trace"
	case name == "solve" || strings.HasPrefix(name, "solve."):
		return "sym"
	case strings.HasPrefix(name, "store."):
		return "store"
	case strings.HasPrefix(name, "http.") || strings.HasPrefix(name, "telemetry.") || name == "restart":
		return "telemetry"
	}
	return "huffduff"
}

// spanNode is one span rebuilt from the Chrome trace.
type spanNode struct {
	name       string
	start, end float64 // microseconds
	children   []*spanNode
}

// parseSpans rebuilds the span forest from obs's Chrome-trace export, which
// emits every span's B/E pair depth-first, children nested inside.
func parseSpans(raw []byte) ([]*spanNode, error) {
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	var roots, stack []*spanNode
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "B":
			n := &spanNode{name: ev.Name, start: ev.TS}
			if len(stack) == 0 {
				roots = append(roots, n)
			} else {
				p := stack[len(stack)-1]
				p.children = append(p.children, n)
			}
			stack = append(stack, n)
		case "E":
			if len(stack) == 0 {
				return nil, fmt.Errorf("parse trace: unbalanced end of %s", ev.Name)
			}
			stack[len(stack)-1].end = ev.TS
			stack = stack[:len(stack)-1]
		}
	}
	return roots, nil
}

// storeReads are the store calls the daemon only makes while serving a
// request or restoring at start-up. The Store interface carries no
// context, so their spans are roots; their time is taken out of the
// telemetry self time that contains it.
var storeReads = map[string]bool{"store.list": true, "store.aggregate": true, "store.get": true}

// selfSeconds sums each layer's self time: a span's duration minus the part
// its children cover.
func selfSeconds(roots []*spanNode) map[string]float64 {
	out := map[string]float64{}
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		self := n.end - n.start
		for _, c := range n.children {
			self -= c.end - c.start
			walk(c)
		}
		if self < 0 {
			self = 0
		}
		out[layerOf(n.name)] += self / 1e6
	}
	for _, r := range roots {
		walk(r)
		if storeReads[r.name] {
			out["telemetry"] -= (r.end - r.start) / 1e6
		}
	}
	return out
}

// writeSpans writes the run's spans as Chrome-trace JSON under the
// artifact directory and adds every layer's self time to m.
func writeSpans(env *runEnv, workload string, col *obs.Collector, m map[string]float64) error {
	raw, err := col.TraceJSON()
	if err != nil {
		return fmt.Errorf("export spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, workload+".trace.json"), raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	roots, err := parseSpans(raw)
	if err != nil {
		return err
	}
	self := selfSeconds(roots)
	for _, l := range selfLayers {
		m["self."+l+"_s"] = self[l]
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
