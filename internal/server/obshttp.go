package server

// Request telemetry surface: request-ID minting, the finish hook that feeds
// the tail-sampling flight recorder, the /debug/requests endpoints that
// expose it, and the job-runner wrapper that extends one request's ID into
// the async job it spawned.  The timelines themselves are built by
// internal/obs; handlers hang spans off the context-carried timeline.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"subgemini/internal/jobs"
	"subgemini/internal/obs"
)

// mintRequestID returns the request's telemetry ID: a sanitized inbound
// X-Request-Id when the caller supplied one (so IDs propagate across
// services), otherwise boot-nonce + sequence.
func (s *Server) mintRequestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-Id")); id != "" {
		return id
	}
	return fmt.Sprintf("%s-%06d", s.ridBoot, s.ridSeq.Add(1))
}

// sanitizeRequestID accepts 1-64 chars of [A-Za-z0-9._-]; anything else
// (including header injection attempts) is discarded and re-minted.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// finishRequest seals a timeline with the response status, hands it to the
// flight recorder, and emits the slow-request log line (top-3 spans inline)
// when the request crossed the threshold.
func (s *Server) finishRequest(tl *obs.Timeline, status int) {
	if status == 0 {
		status = http.StatusOK
	}
	tl.Finish(status)
	reason, slow := s.rec.Observe(tl)
	if slow {
		js := tl.JSON()
		s.log.Warn("slow request",
			"request_id", js.RequestID,
			"scope", js.Scope,
			"method", js.Method,
			"path", js.Path,
			"status", js.Status,
			"duration_ms", js.DurationUS/1000,
			"kept", reason,
			"top_spans", inlineSpans(tl.TopSpans(3)))
	}
}

// inlineSpans renders spans as "kind=dur kind=dur" for one-line log output.
func inlineSpans(spans []obs.SpanJSON) string {
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Kind)
		b.WriteByte('=')
		b.WriteString((time.Duration(sp.DurUS) * time.Microsecond).String())
	}
	return b.String()
}

// handleDebugRequests lists the flight recorder's kept timelines, newest
// first.  Filters: ?outcome= (shed, cancel, error, slow, sampled), ?path=
// (substring), ?min_ms= (minimum total duration), ?limit= (default 50).
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.Filter{
		Outcome: q.Get("outcome"),
		Path:    q.Get("path"),
	}
	if v, err := strconv.Atoi(q.Get("min_ms")); err == nil && v > 0 {
		f.MinDur = time.Duration(v) * time.Millisecond
	}
	if v, err := strconv.Atoi(q.Get("limit")); err == nil && v > 0 {
		f.Limit = v
	}
	list := s.rec.List(f)
	writeJSON(w, http.StatusOK, map[string]any{
		"count":    len(list),
		"requests": list,
	})
}

// handleDebugRequestByID returns every kept timeline carrying the request
// ID — the HTTP request and any job it spawned share one ID and both
// appear, oldest first.
func (s *Server) handleDebugRequestByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tls := s.rec.Find(id)
	if len(tls) == 0 {
		writeError(w, errf(http.StatusNotFound,
			"no recorded timeline for request id %q (the flight recorder tail-samples; errors, sheds, and slow requests are always kept)", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"request_id": id,
		"timelines":  tls,
	})
}

// observeJobRunner wraps a job runner so the job's execution gets its own
// timeline under the submitting request's ID: a queue-wait span covers
// submit-to-start, the runner's context carries the timeline (so
// executeMatch and the sweep engine hang their spans off it), and the
// finished timeline lands in the same flight recorder keyed by the same
// request ID the submit response returned.  A job that fails as the
// synchronous request would records that request's status.
func (s *Server) observeJobRunner(kind, requestID string, fn jobs.Runner) jobs.Runner {
	tl := obs.NewTimeline(requestID, "job:"+kind, "JOB", "/v1/jobs")
	qRef := tl.Begin(obs.NoSpan, obs.KindQueueWait, kind)
	return func(ctx context.Context) (any, error) {
		tl.End(qRef)
		res, err := fn(obs.NewContext(ctx, tl))
		status := http.StatusOK
		var he *httpError
		switch {
		case err == nil:
		case ctx.Err() != nil:
			tl.SetCancelled()
			status = http.StatusServiceUnavailable
		case errors.As(err, &he):
			status = he.status
		default:
			status = http.StatusInternalServerError
		}
		s.finishRequest(tl, status)
		return res, err
	}
}
