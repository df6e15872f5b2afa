package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/obs"
)

// Wire types of the /v1 JSON API. See docs/SERVING.md for the full
// reference with a worked curl session.

// AdmitRequest is the POST /v1/admit and /v1/renegotiate body.
type AdmitRequest struct {
	Flow *model.FlowConfig `json:"flow"`
}

// ReleaseRequest is the POST /v1/release body.
type ReleaseRequest struct {
	Name string `json:"name"`
}

// DecisionResponse answers every mutation request.
type DecisionResponse struct {
	// Decision is "admitted", "rejected", "released" or "renegotiated".
	Decision string `json:"decision"`
	// Reason qualifies a rejection: "deadline miss" or "unstable".
	Reason string `json:"reason,omitempty"`
	// Flow echoes the subject flow's name.
	Flow string `json:"flow"`
	// Seq is the snapshot sequence number after the decision; unchanged
	// on rejection.
	Seq int64 `json:"seq"`
	// Flows is the admitted-set size after the decision.
	Flows int `json:"flows"`
	// MinSlack is the tightest deadline slack of the committed set
	// (absent when no admitted flow has a deadline).
	MinSlack *model.Time `json:"min_slack,omitempty"`
	// Path is the committed route of a route=auto decision (absent on
	// manual-path requests and on refusals).
	Path []model.NodeID `json:"path,omitempty"`
	// RouteCandidates lists the per-candidate verdicts of a route=auto
	// decision, in k-shortest order; absent on manual-path requests.
	RouteCandidates []RouteCandidateVerdict `json:"route_candidates,omitempty"`
}

// RouteCandidateVerdict is one candidate path's verdict in a
// route=auto decision.
type RouteCandidateVerdict struct {
	Path []model.NodeID `json:"path"`
	// Decision is "feasible", "infeasible", "unstable", "invalid" or
	// "error".
	Decision string `json:"decision"`
	// MinSlack is the post-admission tightest slack of the whole set on
	// this path (absent unless the candidate analysed to a verdict).
	MinSlack *model.Time `json:"min_slack,omitempty"`
	// Chosen marks the committed candidate.
	Chosen bool `json:"chosen,omitempty"`
}

// FlowVerdict is one flow's entry in BoundsResponse.
type FlowVerdict struct {
	Flow      string     `json:"flow"`
	Bound     model.Time `json:"bound"`
	Unbounded bool       `json:"unbounded,omitempty"`
	Deadline  model.Time `json:"deadline,omitempty"`
	Feasible  bool       `json:"feasible"`
}

// BoundsResponse is the GET /v1/bounds body: the committed set's
// verdicts, served from the immutable snapshot.
type BoundsResponse struct {
	Seq         int64         `json:"seq"`
	Flows       int           `json:"flows"`
	AllFeasible bool          `json:"all_feasible"`
	MinSlack    *model.Time   `json:"min_slack,omitempty"`
	Verdicts    []FlowVerdict `json:"verdicts"`
}

// FlowInfo is one flow's contract in FlowsResponse.
type FlowInfo struct {
	Name     string         `json:"name"`
	Period   model.Time     `json:"period"`
	Jitter   model.Time     `json:"jitter,omitempty"`
	Deadline model.Time     `json:"deadline,omitempty"`
	Class    string         `json:"class"`
	Path     []model.NodeID `json:"path"`
	Cost     []model.Time   `json:"cost"`
}

// FlowsResponse is the GET /v1/flows body.
type FlowsResponse struct {
	Seq   int64      `json:"seq"`
	Flows []FlowInfo `json:"flows"`
}

// WhatIfRequest is the POST /v1/whatif body: hypothetical mutations to
// probe against the committed set without changing it. "add" and
// "update" need Flow; "remove" needs Name.
type WhatIfRequest struct {
	Candidates []WhatIfCandidate `json:"candidates"`
}

// WhatIfCandidate is one probe.
type WhatIfCandidate struct {
	Op   string            `json:"op"` // add | remove | update
	Name string            `json:"name,omitempty"`
	Flow *model.FlowConfig `json:"flow,omitempty"`
}

// WhatIfOutcome is one probe's result.
type WhatIfOutcome struct {
	Op     string `json:"op"`
	Target string `json:"target"`
	// Decision is "feasible", "infeasible", "unstable" or "error".
	Decision string        `json:"decision"`
	Error    string        `json:"error,omitempty"`
	MinSlack *model.Time   `json:"min_slack,omitempty"`
	Verdicts []FlowVerdict `json:"verdicts,omitempty"`
}

// WhatIfResponse is the POST /v1/whatif body: one outcome per
// candidate, in request order.
type WhatIfResponse struct {
	// Seq is the snapshot the probes were evaluated against.
	Seq      int64           `json:"seq"`
	Outcomes []WhatIfOutcome `json:"outcomes"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
	Seq    int64  `json:"seq"`
	Flows  int    `json:"flows"`
}

// ErrorResponse carries any non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; admission requests are small.
const maxBodyBytes = 1 << 20

// Handler returns the service mux: the /v1 admission API, /healthz,
// and — when Config.Metrics is set — /metrics and /vars.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admit", s.instrument("admit", s.handleAdmit))
	mux.HandleFunc("POST /v1/release", s.instrument("release", s.handleRelease))
	mux.HandleFunc("POST /v1/renegotiate", s.instrument("renegotiate", s.handleRenegotiate))
	mux.HandleFunc("POST /v1/whatif", s.instrument("whatif", s.handleWhatIf))
	mux.HandleFunc("GET /v1/bounds", s.instrument("bounds", s.handleBounds))
	mux.HandleFunc("GET /v1/flows", s.instrument("flows", s.handleFlows))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	if m := s.cfg.Metrics; m != nil {
		mh := m.Handler()
		mux.Handle("GET /metrics", mh)
		mux.Handle("GET /vars", mh)
	}
	return mux
}

// statusWriter records the status code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument emits one obs.EvServeRequest per request with the route
// and the outcome class.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		if tr := s.opt.Tracer; tr != nil {
			outcome := "ok"
			switch {
			case sw.status == http.StatusTooManyRequests:
				outcome = "backpressure"
			case sw.status == http.StatusServiceUnavailable:
				outcome = "shutdown"
			case sw.status == http.StatusGatewayTimeout:
				outcome = "timeout"
			case sw.status >= 500:
				outcome = "server_error"
			case sw.status >= 400:
				outcome = "client_error"
			}
			tr.Emit(obs.Event{Type: obs.EvServeRequest, Op: route, Outcome: outcome, Tenant: s.cfg.Tenant})
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps the error taxonomy to HTTP statuses: unknown flow →
// 404, invalid config → 400, oversized body → 413, canceled (budget or
// client) → 504, backpressure → 429, shutdown → 503, anything else →
// 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownFlow):
		status = http.StatusNotFound
	case errors.Is(err, ErrBackpressure):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrBodyTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, model.ErrCanceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, model.ErrInvalidConfig):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decodeBody decodes a JSON body strictly (unknown fields rejected). A
// body over maxBodyBytes is ErrBodyTooLarge, not a truncated document.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w (limit %d bytes)", ErrBodyTooLarge, tooLarge.Limit)
		}
		return model.Errorf(model.ErrInvalidConfig, "serve: decoding request: %w", err)
	}
	return nil
}

// requestCtx applies the per-request analysis budget on top of the
// client's own context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if d := s.cfg.RequestTimeout; d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// dispatch enqueues one mutation and waits for its decision. The loop
// always replies — including during shutdown drain — so the only other
// exit is the client abandoning the request.
func (s *Server) dispatch(r *http.Request, m *mutation) decision {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	m.ctx = ctx
	m.reply = make(chan decision, 1)
	if err := s.enqueueMutation(m); err != nil {
		return decision{Err: err}
	}
	select {
	case d := <-m.reply:
		return d
	case <-r.Context().Done():
		// The client is gone; the loop will still process the request
		// (its analysis ctx is canceled with ours) and reply into the
		// buffered channel.
		return decision{Err: model.Errorf(model.ErrCanceled, "serve: client went away: %v", r.Context().Err())}
	}
}

func decisionResponse(name string, d decision) DecisionResponse {
	resp := DecisionResponse{Decision: d.Outcome, Reason: d.Reason, Flow: name}
	if sn := d.Snap; sn != nil {
		resp.Seq = sn.Seq
		resp.Flows = sn.N()
		if sn.MinSlack < model.TimeInfinity {
			ms := sn.MinSlack
			resp.MinSlack = &ms
		}
	}
	resp.Path = d.Path
	for i := range d.Cands {
		c := &d.Cands[i]
		v := RouteCandidateVerdict{Path: c.Path, Decision: c.Outcome, Chosen: i == d.Winner}
		if (c.Outcome == "feasible" || c.Outcome == "infeasible") && c.MinSlack < model.TimeInfinity {
			ms := c.MinSlack
			v.MinSlack = &ms
		}
		resp.RouteCandidates = append(resp.RouteCandidates, v)
	}
	return resp
}

// routeMode parses the ?route= query of admit/renegotiate: absent or
// "manual" keeps the submitted path, "auto" turns on routing-aware
// admission, anything else is a client error.
func routeMode(r *http.Request) (auto bool, err error) {
	switch v := r.URL.Query().Get("route"); v {
	case "", "manual":
		return false, nil
	case "auto":
		return true, nil
	default:
		return false, model.Errorf(model.ErrInvalidConfig, "serve: route=%q (want auto or manual)", v)
	}
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Flow == nil {
		writeError(w, model.Errorf(model.ErrInvalidConfig, "serve: admit needs a flow"))
		return
	}
	f, err := req.Flow.Build()
	if err != nil {
		writeError(w, model.Classify(model.ErrInvalidConfig, err))
		return
	}
	auto, err := routeMode(r)
	if err != nil {
		writeError(w, err)
		return
	}
	d := s.dispatch(r, &mutation{op: "admit", flow: f, route: auto})
	if d.Err != nil {
		writeError(w, d.Err)
		return
	}
	writeJSON(w, http.StatusOK, decisionResponse(f.Name, d))
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" {
		writeError(w, model.Errorf(model.ErrInvalidConfig, "serve: release needs a name"))
		return
	}
	d := s.dispatch(r, &mutation{op: "release", name: req.Name})
	if d.Err != nil {
		writeError(w, d.Err)
		return
	}
	writeJSON(w, http.StatusOK, decisionResponse(req.Name, d))
}

func (s *Server) handleRenegotiate(w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Flow == nil {
		writeError(w, model.Errorf(model.ErrInvalidConfig, "serve: renegotiate needs a flow"))
		return
	}
	f, err := req.Flow.Build()
	if err != nil {
		writeError(w, model.Classify(model.ErrInvalidConfig, err))
		return
	}
	auto, err := routeMode(r)
	if err != nil {
		writeError(w, err)
		return
	}
	d := s.dispatch(r, &mutation{op: "renegotiate", flow: f, route: auto})
	if d.Err != nil {
		writeError(w, d.Err)
		return
	}
	writeJSON(w, http.StatusOK, decisionResponse(f.Name, d))
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req WhatIfRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Candidates) == 0 {
		writeError(w, model.Errorf(model.ErrInvalidConfig, "serve: whatif needs candidates"))
		return
	}
	wr := &whatifReq{reply: make(chan whatifReply, 1)}
	for k, c := range req.Candidates {
		wc := whatifCand{op: c.Op, name: c.Name}
		if c.Flow != nil {
			f, err := c.Flow.Build()
			if err != nil {
				writeError(w, model.Errorf(model.ErrInvalidConfig, "serve: candidate %d: %w", k, err))
				return
			}
			wc.flow = f
		}
		wr.cands = append(wr.cands, wc)
	}
	if err := s.enqueueWhatIf(wr); err != nil {
		writeError(w, err)
		return
	}
	var rep whatifReply
	select {
	case rep = <-wr.reply:
	case <-r.Context().Done():
		writeError(w, model.Errorf(model.ErrCanceled, "serve: client went away: %v", r.Context().Err()))
		return
	}
	if rep.err != nil {
		writeError(w, rep.err)
		return
	}
	resp := WhatIfResponse{Outcomes: make([]WhatIfOutcome, len(rep.probes))}
	if rep.snap != nil {
		resp.Seq = rep.snap.Seq
	}
	for k := range rep.probes {
		resp.Outcomes[k] = wireProbe(&rep.probes[k])
	}
	writeJSON(w, http.StatusOK, resp)
}

// wireProbe converts a probe outcome to its wire form. A diverging
// hypothetical (ErrUnstable/ErrOverflow) is a useful answer — decision
// "unstable" — not an error.
func wireProbe(p *whatifProbe) WhatIfOutcome {
	out := WhatIfOutcome{Op: p.Op, Target: p.Target}
	switch {
	case p.Err != nil && feasibility.ClassifyRouteOutcome(p.Err, false) == "unstable":
		out.Decision = "unstable"
	case p.Err != nil:
		out.Decision = "error"
		out.Error = p.Err.Error()
	default:
		out.Decision = "feasible"
		if !p.AllFeasible {
			out.Decision = "infeasible"
		}
		if p.MinSlack < model.TimeInfinity {
			ms := p.MinSlack
			out.MinSlack = &ms
		}
		for i, name := range p.Names {
			out.Verdicts = append(out.Verdicts, FlowVerdict{
				Flow:      name,
				Bound:     p.Bounds[i],
				Unbounded: model.IsUnbounded(p.Bounds[i]),
				Deadline:  p.Deadlines[i],
				Feasible:  p.Deadlines[i] <= 0 || p.Bounds[i] <= p.Deadlines[i],
			})
		}
	}
	return out
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	resp := BoundsResponse{
		Seq:         sn.Seq,
		Flows:       sn.N(),
		AllFeasible: sn.AllFeasible,
	}
	if sn.MinSlack < model.TimeInfinity {
		ms := sn.MinSlack
		resp.MinSlack = &ms
	}
	if sn.FS != nil {
		for i, f := range sn.FS.Flows {
			resp.Verdicts = append(resp.Verdicts, FlowVerdict{
				Flow:      f.Name,
				Bound:     sn.Bounds[i],
				Unbounded: model.IsUnbounded(sn.Bounds[i]),
				Deadline:  f.Deadline,
				Feasible:  f.Deadline <= 0 || sn.Bounds[i] <= f.Deadline,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	resp := FlowsResponse{Seq: sn.Seq}
	if sn.FS != nil {
		for _, f := range sn.FS.Flows {
			resp.Flows = append(resp.Flows, FlowInfo{
				Name:     f.Name,
				Period:   f.Period,
				Jitter:   f.Jitter,
				Deadline: f.Deadline,
				Class:    f.Class.String(),
				Path:     f.Path,
				Cost:     f.Cost,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Seq: sn.Seq, Flows: sn.N()})
}
