package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"paragraph/internal/admit"
)

// Async advise: POST /v1/advise?async=1 returns 202 with a job id
// immediately and evaluates in the background; the client polls
// GET /v1/jobs/{id} (or streams the finished ranking with ?stream=1).
// The job store is bounded and TTL-evicted, so a client that never polls
// cannot grow server memory, and submissions beyond capacity shed with
// the same 503 + Retry-After surface as the synchronous path.

// JobSubmitResponse is the 202 Accepted payload of an async submission.
type JobSubmitResponse struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	// Poll is the URL to fetch the job's state and, once done, its result.
	Poll string `json:"poll"`
}

// JobResponse is the GET /v1/jobs/{id} payload. Result is the job's
// AdviseResponse once done (or the owning peer's verbatim answer when the
// evaluation was forwarded in cluster mode).
type JobResponse struct {
	JobID       string  `json:"job_id"`
	Status      string  `json:"status"`
	CreatedUnix int64   `json:"created_unix"`
	ElapsedMS   float64 `json:"elapsed_ms,omitempty"` // start → finish, finished jobs only
	Error       string  `json:"error,omitempty"`
	Result      any     `json:"result,omitempty"`
}

// startAdviseJob is the async branch of handleAdvise: register a job,
// evaluate in the background under the server's lifetime (not the
// request's — the submitting connection is gone by then), answer 202.
// A deadline header bounds the background evaluation the same way it
// would bound a synchronous request.
func (s *Server) startAdviseJob(w http.ResponseWriter, r *http.Request, p adviseParams) {
	var budget time.Duration
	if h := r.Header.Get(admit.DeadlineHeader); h != "" {
		d, err := admit.ParseDeadline(h)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		budget = d
	}
	id, err := s.jobs.Submit()
	if err != nil {
		if shed, ok := asShed(err); ok {
			s.writeShed(w, shed, evalCost(p.ms.adviseEval))
			return
		}
		s.fail(w, http.StatusInternalServerError, "submit job: %v", err)
		return
	}
	s.jobsWG.Add(1)
	go func() {
		defer s.jobsWG.Done()
		s.runAdviseJob(id, p, budget)
	}()
	s.writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		JobID:  id,
		Status: string(admit.JobPending),
		Poll:   "/v1/jobs/" + id,
	})
}

// runAdviseJob evaluates one async job through the same admission, cache,
// cluster and singleflight path the synchronous handler uses. budget > 0
// bounds the evaluation; jobsCtx bounds it to the server's life either
// way, so Close never strands a running job.
func (s *Server) runAdviseJob(id string, p adviseParams, budget time.Duration) {
	ctx := s.jobsCtx
	if budget > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	s.jobs.Start(id)
	resp, pr, err := s.advise(ctx, nil, p)
	switch {
	case err != nil:
		if shed, ok := asShed(err); ok {
			s.metrics.shed[shed.Reason].Inc()
			err = shed
		}
		s.jobs.Finish(id, nil, err)
	case pr == nil:
		s.jobs.Finish(id, resp, nil)
	case pr.status/100 == 2:
		// A peer answered. Its 2xx body is a rendered AdviseResponse and
		// becomes the result verbatim; anything else is the evaluation's
		// authoritative failure.
		s.jobs.Finish(id, json.RawMessage(pr.body), nil)
	default:
		s.jobs.Finish(id, nil, fmt.Errorf("peer answered %d: %s", pr.status, strings.TrimSpace(string(pr.body))))
	}
}

// handleJobs serves GET /v1/jobs/{id}: the job's state while it runs, its
// result (or error) once finished. ?stream=1 renders a finished ranking
// as NDJSON — one header line, then one line per recommendation, flushed
// as written — for clients that consume rankings incrementally.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		s.fail(w, http.StatusNotFound, "job id required: GET /v1/jobs/{id}")
		return
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown or expired job %q", id)
		return
	}
	if stream := r.URL.Query().Get("stream"); stream == "1" || stream == "true" {
		s.streamJob(w, j)
		return
	}
	s.writeJSON(w, http.StatusOK, jobResponse(j))
}

// jobResponse renders a job's state, timing and result.
func jobResponse(j admit.Job) JobResponse {
	resp := JobResponse{
		JobID:       j.ID,
		Status:      string(j.State),
		CreatedUnix: j.Created.Unix(),
		Error:       j.Error,
		Result:      j.Result,
	}
	if !j.Finished.IsZero() && !j.Started.IsZero() {
		resp.ElapsedMS = float64(j.Finished.Sub(j.Started).Microseconds()) / 1000
	}
	return resp
}

// streamJob renders one finished job as NDJSON: a header object first,
// then each recommendation on its own flushed line. A job that is still
// pending/running streams just its header (poll again later); a forwarded
// job's result is a peer-rendered response and streams as one line.
func (s *Server) streamJob(w http.ResponseWriter, j admit.Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	head := jobResponse(j)
	if resp, ok := j.Result.(AdviseResponse); ok {
		recs := resp.Recommendations
		resp.Recommendations = nil
		head.Result = resp // ranking metadata without the rows; they follow
		_ = enc.Encode(head)
		flush()
		for _, rec := range recs {
			_ = enc.Encode(rec)
			flush()
		}
		return
	}
	_ = enc.Encode(head)
	flush()
}
