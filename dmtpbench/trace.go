package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one interval the benchmark recorded around its own calls into
// the pipeline. Spans of one message share its id.
type span struct {
	name       string
	id         uint64
	start, end int64 // ns since process start
	parent     string
}

// spanEvery is the sampling period of the benchmark's own message spans
// in the trace file; every message is timed in memory.
const spanEvery = 100

// writeTraces writes the traced pass's spans: the benchmark's own
// due → send → delivered spans per sampled message, and the in-band
// FeatTraced records through tracespan.WriteTraceJSON.
func writeTraces(opts options, p *pipeline, c *checker, sendAt, sendNs, deliverAt []int64) error {
	var spans []span
	for i := 0; i < len(sendAt); i += spanEvery {
		if deliverAt[i] == 0 {
			continue // lost: its spans never closed
		}
		idx := c.pacedFirst + uint64(i)
		due, sent := c.due(idx), sendAt[i]+sendNs[i]
		spans = append(spans,
			span{name: "message", id: idx, start: due, end: deliverAt[i]},
			span{name: "generator lag", id: idx, start: due, end: sendAt[i], parent: "message"},
			span{name: "Sender.Send", id: idx, start: sendAt[i], end: sent, parent: "message"},
			span{name: "sender to delivery", id: idx, start: sent, end: deliverAt[i], parent: "message"},
		)
	}
	if err := writeSpans(opts.scratch("traces", fileStem(opts)+"-bench.json"), spans); err != nil {
		return err
	}
	f, err := os.Create(opts.scratch("traces", fileStem(opts)+"-inband.json"))
	if err != nil {
		return err
	}
	if err := p.tracer.WriteTraceJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileStem(opts options) string {
	return fmt.Sprintf("%s-seed%d", opts.workload.name, opts.seed)
}

// writeSpans renders spans as Chrome trace-event JSON (Perfetto opens it).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.id, Args: map[string]any{"id": s.id, "parent": s.parent}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
