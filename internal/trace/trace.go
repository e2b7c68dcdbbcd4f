// Package trace turns recorded exchange operations into analyzable
// timelines: per-stream lanes, overlap statistics (how much the §III-D
// machinery actually parallelizes), an ASCII Gantt rendering, and Chrome
// trace-event JSON for chrome://tracing / Perfetto.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/nodeaware/stencil/internal/cudart"
)

// Timeline is an ordered set of operation spans.
type Timeline struct {
	Ops []cudart.OpRecord
}

// New builds a timeline from recorded ops, sorted by device, stream, start.
func New(ops []cudart.OpRecord) *Timeline {
	t := &Timeline{Ops: make([]cudart.OpRecord, len(ops))}
	copy(t.Ops, ops)
	sort.Slice(t.Ops, func(i, j int) bool {
		a, b := t.Ops[i], t.Ops[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Start < b.Start
	})
	return t
}

// Span returns the earliest start and latest end across all ops.
func (t *Timeline) Span() (start, end float64) {
	if len(t.Ops) == 0 {
		return 0, 0
	}
	start, end = t.Ops[0].Start, t.Ops[0].End
	for _, op := range t.Ops {
		if op.Start < start {
			start = op.Start
		}
		if op.End > end {
			end = op.End
		}
	}
	return start, end
}

// Stats summarizes the timeline.
type Stats struct {
	Ops        int
	Devices    int
	Streams    int
	Span       float64 // wall span in seconds
	BusyTime   float64 // sum of op durations
	Overlap    float64 // BusyTime / Span: >1 means real parallelism
	TotalBytes int64
}

// ComputeStats derives summary statistics.
func (t *Timeline) ComputeStats() Stats {
	s := Stats{Ops: len(t.Ops)}
	if len(t.Ops) == 0 {
		return s
	}
	devs := make(map[int]struct{})
	streams := make(map[string]struct{})
	start, end := t.Span()
	for _, op := range t.Ops {
		devs[op.Device] = struct{}{}
		streams[op.Stream] = struct{}{}
		s.BusyTime += op.End - op.Start
		s.TotalBytes += op.Bytes
	}
	s.Devices = len(devs)
	s.Streams = len(streams)
	s.Span = end - start
	if s.Span > 0 {
		s.Overlap = s.BusyTime / s.Span
	}
	return s
}

// ChromeEvent is one Chrome trace-event: an "X" complete event, a "C"
// counter sample or an "M" metadata record, with microsecond timestamps.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   string         `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// CounterTrack is a step function of (virtual time, value) samples merged
// into the Chrome trace as Perfetto counter events — typically per-link
// utilization from a telemetry recorder's Tracks().
type CounterTrack struct {
	Name   string
	Times  []float64 // seconds, ascending
	Values []float64 // same length as Times
}

// counterPID is the synthetic process id holding all counter tracks, chosen
// far above any real device id so Perfetto groups them in their own lane.
const counterPID = 1000

// WriteChromeTrace emits the timeline as Chrome trace-event JSON: one
// process per device, one thread per stream, plus one "C" counter event per
// sample of each optional counter track. Load the output in chrome://tracing
// or https://ui.perfetto.dev.
func (t *Timeline) WriteChromeTrace(w io.Writer, tracks ...CounterTrack) error {
	start, _ := t.Span()
	for _, tr := range tracks {
		if len(tr.Times) > 0 && tr.Times[0] < start {
			start = tr.Times[0]
		}
	}
	events := make([]ChromeEvent, 0, len(t.Ops))
	for _, op := range t.Ops {
		events = append(events, ChromeEvent{
			Name:  op.Name,
			Cat:   op.Kind.String(),
			Phase: "X",
			TS:    (op.Start - start) * 1e6,
			Dur:   (op.End - op.Start) * 1e6,
			PID:   op.Device,
			TID:   op.Stream,
			Args:  map[string]any{"bytes": op.Bytes},
		})
	}
	if len(tracks) > 0 {
		events = append(events, ChromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   counterPID,
			Args:  map[string]any{"name": "link utilization"},
		})
		for _, tr := range tracks {
			for i, ts := range tr.Times {
				events = append(events, ChromeEvent{
					Name:  tr.Name,
					Cat:   "counter",
					Phase: "C",
					TS:    (ts - start) * 1e6,
					PID:   counterPID,
					Args:  map[string]any{"value": tr.Values[i]},
				})
			}
		}
	}
	return WriteChromeEvents(w, events)
}

// WriteChromeEvents encodes events as a Chrome trace-event JSON document,
// {"traceEvents": [...]}, loadable in chrome://tracing or
// https://ui.perfetto.dev.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// Glyphs maps op kinds to ASCII-chart glyphs. Every cudart.OpKind must have
// an entry (enforced by TestGlyphsCoverAllOpKinds): a '?' in a Gantt chart
// means a new kind was added without a glyph.
var Glyphs = map[string]byte{
	"kernel":     'K',
	"memcpyD2D":  'P',
	"memcpyD2H":  'v',
	"memcpyH2D":  '^',
	"memcpyH2H":  '=',
	"retransmit": 'R',
	"reexchange": 'X',
}

// RenderASCII draws a Gantt chart of the timeline, one row per
// (device, stream) lane, `width` characters across the time span. Rows are
// keyed by device AND stream: two devices may reuse the same stream name,
// and a stream-only key would merge their lanes into one garbled row.
func (t *Timeline) RenderASCII(w io.Writer, width int) {
	if len(t.Ops) == 0 {
		fmt.Fprintln(w, "(empty timeline)")
		return
	}
	if width < 1 {
		width = 1
	}
	start, end := t.Span()
	span := end - start
	if span <= 0 {
		// Single-instant timeline: every op collapses to one glyph cell.
		span = 1
	}
	scale := float64(width) / span

	type rowKey struct {
		device int
		stream string
	}
	var last rowKey
	haveRow := false
	var label string
	var row []byte
	flush := func() {
		if haveRow {
			fmt.Fprintf(w, "%-24s |%s|\n", label, string(row))
		}
	}
	for _, op := range t.Ops {
		k := rowKey{op.Device, op.Stream}
		if !haveRow || k != last {
			flush()
			last = k
			haveRow = true
			label = fmt.Sprintf("d%d %s", op.Device, op.Stream)
			row = []byte(strings.Repeat(" ", width))
		}
		lo := int((op.Start - start) * scale)
		hi := int((op.End - start) * scale)
		if lo >= width {
			lo = width - 1
		}
		if hi >= width {
			hi = width - 1
		}
		if hi < lo {
			hi = lo // zero-duration op still renders one glyph
		}
		g := Glyphs[op.Kind.String()]
		if g == 0 {
			g = '?'
		}
		for i := lo; i <= hi; i++ {
			row[i] = g
		}
	}
	flush()
	fmt.Fprintf(w, "%-24s  0%s%.3f ms\n", "time:", strings.Repeat(" ", maxInt(0, width-12)), span*1e3)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
