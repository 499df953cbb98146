package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Record on a closed JSONLWriter.
var ErrClosed = errors.New("obs: write to closed JSONLWriter")

// jsonlBufSize bounds the writer's only in-memory state: one bufio flush
// window. Span volume never accumulates — a million-flight run holds a
// million spans on disk and 64 KiB in memory.
const jsonlBufSize = 64 << 10

// JSONLWriter streams spans to a writer as one JSON object per line. It
// is bounded-memory by construction (spans are encoded and flushed
// through a fixed-size buffer, never retained), safe for concurrent use,
// and byte-deterministic: encoding/json emits struct fields in
// declaration order, and engine spans arrive in event order, so two
// same-seed runs produce identical trace files.
type JSONLWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	enc     *json.Encoder
	c       io.Closer
	n       atomic.Int64
	dropped atomic.Int64
	err     error
	closed  bool
}

// NewJSONLWriter wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriterSize(w, jsonlBufSize)
	j := &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Span writes one span line. Write errors are sticky: the first is kept
// and later spans are dropped and counted (a failing trace sink must not
// stall or perturb the run — the SpanSink interface has no error return
// by design). The loss is never silent: Err and Dropped expose it mid-run
// and Close returns the original error, so callers that care fail loudly
// at shutdown. Spans arriving after Close are dropped and counted too.
func (j *JSONLWriter) Span(s Span) {
	j.mu.Lock()
	if j.err == nil && !j.closed {
		j.err = j.enc.Encode(s)
	}
	dropped := j.err != nil || j.closed
	j.mu.Unlock()
	j.n.Add(1)
	if dropped {
		j.dropped.Add(1)
	}
}

// Record writes one arbitrary JSON line (e.g. a WallRecord) through the
// same buffered stream, returning any write error immediately as well as
// keeping it sticky. Lines written via Record are not counted by Count;
// one that cannot be written (after an error, or after Close, which
// returns ErrClosed) is counted by Dropped.
func (j *JSONLWriter) Record(v any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		j.dropped.Add(1)
		return ErrClosed
	case j.err == nil:
		j.err = j.enc.Encode(v)
	}
	if j.err != nil {
		j.dropped.Add(1)
	}
	return j.err
}

// Count returns the number of spans received (including any dropped
// after a write error).
func (j *JSONLWriter) Count() int64 { return j.n.Load() }

// Dropped returns how many lines (spans and records) were discarded
// because a write failed or the writer was closed. Nonzero means the file
// on disk is incomplete.
func (j *JSONLWriter) Dropped() int64 { return j.dropped.Load() }

// Err returns the sticky write error, or nil if every line so far was
// accepted by the underlying writer.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the underlying writer, returning the first
// error seen (an earlier write error takes precedence over flush/close
// errors, since it is the root cause of any dropped spans).
func (j *JSONLWriter) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if err := j.bw.Flush(); j.err == nil {
		j.err = err
	}
	if j.c != nil {
		if err := j.c.Close(); j.err == nil {
			j.err = err
		}
	}
	return j.err
}
