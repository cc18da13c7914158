// Package daemon is the HTTP face of the campaign scheduler: the amdmbd
// binary wraps a Server around one shared core.Suite, and every client
// request becomes a campaign.Jobs submission on it. Keeping the handler
// here (not in cmd/amdmbd) lets the remote-client tests exercise the
// real wire protocol in-process with httptest.
//
// The API is deliberately small and versioned:
//
//	POST   /v1/campaigns                      submit a campaign.Request — 202 + status
//	GET    /v1/campaigns                      all job statuses, newest first
//	GET    /v1/campaigns/{id}                 one job's status
//	DELETE /v1/campaigns/{id}                 cancel a running job — 202 + status
//	GET    /v1/campaigns/{id}/figures/{fig}.csv  a done job's figure as CSV
//	GET    /v1/metrics                        the suite's obs snapshot as JSON
//	GET    /v1/healthz                        liveness probe
//
// Errors are JSON {"error": "..."} with conventional codes: 400 for a
// request the registry rejects, 404 for unknown jobs and figures, 409
// for a figure requested before its job is done (or after it failed)
// and for cancelling a settled job. The daemon.http.requests counter on
// the shared registry counts every request, so /v1/metrics exposes the
// server's own traffic alongside the pipeline and campaign numbers.
package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"amdgpubench/internal/campaign"
	"amdgpubench/internal/obs"
)

// maxRequestBody bounds a campaign submission; real requests are a few
// hundred bytes.
const maxRequestBody = 1 << 20

// Server handles the /v1 campaign API over one shared job registry.
type Server struct {
	jobs     *campaign.Jobs
	reg      *obs.Registry
	log      *log.Logger
	requests *obs.Counter
	mux      *http.ServeMux
}

// NewServer wires the routes. reg should be the shared suite's registry
// so /v1/metrics reports pipeline, campaign and HTTP numbers together;
// logger may be nil for silence.
func NewServer(jobs *campaign.Jobs, reg *obs.Registry, logger *log.Logger) *Server {
	s := &Server{
		jobs:     jobs,
		reg:      reg,
		log:      logger,
		requests: reg.Counter("daemon.http.requests"),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/campaigns", s.submit)
	s.mux.HandleFunc("GET /v1/campaigns", s.list)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.status)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/figures/{fig}", s.figure)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.mux.HandleFunc("GET /v1/healthz", s.healthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.mux.ServeHTTP(w, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req campaign.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	job, err := s.jobs.Submit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := job.Status()
	s.logf("campaign %s: %s (%d units)", st.ID, strings.Join(st.Figs, ","), st.Units)
	w.Header().Set("Location", "/v1/campaigns/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	if !s.jobs.Cancel(id) {
		writeError(w, http.StatusConflict, "campaign %s already settled (%s)", id, job.Status().State)
		return
	}
	s.logf("campaign %s: cancel requested", id)
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) figure(w http.ResponseWriter, r *http.Request) {
	id, fig := r.PathValue("id"), r.PathValue("fig")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	name, isCSV := strings.CutSuffix(fig, ".csv")
	if !isCSV {
		writeError(w, http.StatusNotFound, "figures are served as %q", name+".csv")
		return
	}
	switch st := job.Status(); st.State {
	case campaign.JobRunning:
		writeError(w, http.StatusConflict, "campaign %s still running (%d/%d units)", id, st.Executed, st.Units)
		return
	case campaign.JobFailed, campaign.JobCancelled:
		writeError(w, http.StatusConflict, "campaign %s %s: %s", id, st.State, st.Error)
		return
	}
	figure, ok := job.Figure(name)
	if !ok {
		writeError(w, http.StatusNotFound, "campaign %s has no figure %q", id, name)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	_, _ = io.WriteString(w, figure.CSV())
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	data, err := s.reg.Snapshot().JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}
