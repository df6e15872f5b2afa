package model

import (
	"encoding/json"
	"io"
)

// FlowSetConfig is the JSON wire format consumed by the command-line
// tools. Costs may be given as a single number (uniform over the path)
// or as one value per path node.
//
//	{
//	  "network": {"lmin": 1, "lmax": 1},
//	  "flows": [
//	    {"name": "tau1", "period": 36, "jitter": 0, "deadline": 40,
//	     "class": "EF", "path": [1, 3, 4, 5], "cost": 4}
//	  ]
//	}
type FlowSetConfig struct {
	Network NetworkConfig `json:"network"`
	Flows   []FlowConfig  `json:"flows"`
}

// NetworkConfig is the JSON form of Network.
type NetworkConfig struct {
	Lmin Time `json:"lmin"`
	Lmax Time `json:"lmax"`
}

// FlowConfig is the JSON form of one flow.
type FlowConfig struct {
	Name     string          `json:"name"`
	Period   Time            `json:"period"`
	Jitter   Time            `json:"jitter,omitempty"`
	Deadline Time            `json:"deadline,omitempty"`
	Class    string          `json:"class,omitempty"` // "EF" (default), "AF", "BE"
	Path     []NodeID        `json:"path"`
	Cost     json.RawMessage `json:"cost"` // number or array of numbers
}

// ParseFlowSet decodes, validates and relates a flow-set configuration,
// splitting flows as needed to satisfy Assumption 1.
func ParseFlowSet(r io.Reader) (*FlowSet, error) {
	fs, _, err := ParseFlowSetWithOriginals(r)
	return fs, err
}

// ParseFlowSetWithOriginals additionally returns the pre-split flows,
// which callers need to chain fragment bounds back to the configured
// flows (trajectory.AnalyzeSplit) and to simulate the real system.
func ParseFlowSetWithOriginals(r io.Reader) (*FlowSet, []*Flow, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg FlowSetConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, nil, Errorf(ErrInvalidConfig, "model: decoding flow set: %w", err)
	}
	return cfg.BuildWithOriginals()
}

// Build converts the configuration into a validated FlowSet.
func (cfg *FlowSetConfig) Build() (*FlowSet, error) {
	fs, _, err := cfg.BuildWithOriginals()
	return fs, err
}

// BuildWithOriginals converts the configuration and also returns the
// pre-split flows. A configuration with no flows is refused: a flow-set
// file describes something to analyse, even though a FlowSet may be
// empty.
func (cfg *FlowSetConfig) BuildWithOriginals() (*FlowSet, []*Flow, error) {
	net := Network{Lmin: cfg.Network.Lmin, Lmax: cfg.Network.Lmax}
	flows := make([]*Flow, 0, len(cfg.Flows))
	for i, fc := range cfg.Flows {
		f, err := fc.build()
		if err != nil {
			return nil, nil, Errorf(ErrInvalidConfig, "model: flow %d: %w", i, err)
		}
		flows = append(flows, f)
	}
	split := EnforceAssumption1(flows)
	fs, err := NewFlowSet(net, split)
	if err != nil {
		return nil, nil, err
	}
	if fs.N() == 0 {
		return nil, nil, Errorf(ErrInvalidConfig, "flowset: no flows")
	}
	return fs, flows, nil
}

// Build converts one flow configuration into a validated Flow —
// the unit incremental callers (admission traces, delta mutations)
// need, where whole-set Build is too coarse.
func (fc *FlowConfig) Build() (*Flow, error) { return fc.build() }

func (fc *FlowConfig) build() (*Flow, error) {
	var class Class
	switch fc.Class {
	case "", "EF", "ef":
		class = ClassEF
	case "AF", "af":
		class = ClassAF
	case "BE", "be":
		class = ClassBE
	default:
		return nil, Errorf(ErrInvalidConfig, "unknown class %q", fc.Class)
	}
	costs, err := parseCosts(fc.Cost, len(fc.Path))
	if err != nil {
		return nil, err
	}
	f := &Flow{
		Name:     fc.Name,
		Period:   fc.Period,
		Jitter:   fc.Jitter,
		Deadline: fc.Deadline,
		Path:     append(Path(nil), fc.Path...),
		Cost:     costs,
		Class:    class,
	}
	f.parent = -1
	return f, f.Validate()
}

func parseCosts(raw json.RawMessage, n int) ([]Time, error) {
	if len(raw) == 0 {
		return nil, Errorf(ErrInvalidConfig, "missing cost")
	}
	var scalar Time
	if err := json.Unmarshal(raw, &scalar); err == nil {
		out := make([]Time, n)
		for i := range out {
			out[i] = scalar
		}
		return out, nil
	}
	var list []Time
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, Errorf(ErrInvalidConfig, "cost must be a number or an array: %w", err)
	}
	if len(list) != n {
		return nil, Errorf(ErrInvalidConfig, "%d costs for %d path nodes", len(list), n)
	}
	return append([]Time(nil), list...), nil
}

// ConfigOfFlow converts one flow back to its wire form — the record
// shape the admission journal persists and MarshalConfig aggregates.
func ConfigOfFlow(f *Flow) FlowConfig {
	costJSON, _ := json.Marshal(f.Cost)
	return FlowConfig{
		Name:     f.Name,
		Period:   f.Period,
		Jitter:   f.Jitter,
		Deadline: f.Deadline,
		Class:    f.Class.String(),
		Path:     append([]NodeID(nil), f.Path...),
		Cost:     costJSON,
	}
}

// TopologyConfig is the JSON wire format of a Topology: a list of
// directed links, optionally mirrored. The CLI daemons load one to
// enable path validation and auto-routing.
//
//	{"bidirectional": true, "links": [[0,1],[1,2]]}
type TopologyConfig struct {
	Links         [][2]NodeID `json:"links"`
	Bidirectional bool        `json:"bidirectional,omitempty"`
}

// Build converts the configuration into a Topology, rejecting
// self-links with ErrInvalidConfig (this is the loader path AddLink's
// contract points at).
func (tc *TopologyConfig) Build() (*Topology, error) {
	if len(tc.Links) == 0 {
		return nil, Errorf(ErrInvalidConfig, "model: topology config has no links")
	}
	t := NewTopology()
	for i, l := range tc.Links {
		if err := t.AddLinkChecked(l[0], l[1]); err != nil {
			return nil, Errorf(ErrInvalidConfig, "model: topology link %d: %w", i, err)
		}
		if tc.Bidirectional {
			if err := t.AddLinkChecked(l[1], l[0]); err != nil {
				return nil, Errorf(ErrInvalidConfig, "model: topology link %d: %w", i, err)
			}
		}
	}
	return t, nil
}

// ParseTopology decodes and builds a topology configuration.
func ParseTopology(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg TopologyConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, Errorf(ErrInvalidConfig, "model: decoding topology: %w", err)
	}
	return cfg.Build()
}

// MarshalConfig converts a FlowSet back to its wire format (used by the
// workload generators' CLI export).
func (fs *FlowSet) MarshalConfig() *FlowSetConfig {
	cfg := &FlowSetConfig{Network: NetworkConfig{Lmin: fs.Net.Lmin, Lmax: fs.Net.Lmax}}
	for _, f := range fs.Flows {
		cfg.Flows = append(cfg.Flows, ConfigOfFlow(f))
	}
	return cfg
}
