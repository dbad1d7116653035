// Package service implements the GATES deployment machinery: the XML
// application descriptor, the application repository, the Deployer, and the
// Launcher.
//
// The paper's workflow (§3.2): an application developer divides the
// application into stages, implements each stage, registers the stage codes
// in an application repository, and writes an XML configuration file naming
// the stages and their codes. An application user hands the configuration to
// the Launcher; the Deployer consults the grid resource manager for nodes
// matching each stage's requirements, instantiates a GATES grid-service
// instance per stage on those nodes, retrieves the stage codes from the
// repository, and customizes each instance with them. This package is that
// pipeline, with the simulated grid (internal/grid) as the resource manager
// and processor factories as the mobile "stage code".
package service

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// AppConfig is the parsed application descriptor.
type AppConfig struct {
	XMLName     xml.Name   `xml:"application"`
	Name        string     `xml:"name,attr"`
	Stages      []StageDef `xml:"stage"`
	Connections []ConnDef  `xml:"connection"`
}

// StageDef declares one pipeline stage.
type StageDef struct {
	// ID names the stage within the application.
	ID string `xml:"id,attr"`
	// Code is the repository key of the stage's implementation.
	Code string `xml:"code,attr"`
	// Instances is how many instances to deploy (default 1). Source
	// stages typically run one instance per data stream.
	Instances int `xml:"instances,attr"`
	// Source marks a generating stage with no inputs.
	Source bool `xml:"source,attr"`
	// QueueCapacity overrides the instance input-buffer capacity C.
	QueueCapacity int `xml:"queueCapacity,attr"`
	// Requirement constrains placement.
	Requirement ReqDef `xml:"requirement"`
	// NearSources lists per-instance placement hints: instance i prefers
	// the node hosting NearSources[i]. The paper's rule "the first stage
	// is applied near sources of individual streams" is expressed here.
	NearSources []string `xml:"nearSource"`
}

// ReqDef is a stage's resource requirement.
type ReqDef struct {
	MinCPU      float64 `xml:"minCPU,attr"`
	MinMemoryMB int     `xml:"minMemoryMB,attr"`
	Site        string  `xml:"site,attr"`
}

// FanoutMode selects how instances of two connected stages are wired.
type FanoutMode string

const (
	// FanoutAuto wires pairwise when instance counts match, all-to-all
	// otherwise.
	FanoutAuto FanoutMode = ""
	// FanoutPairwise wires instance i to instance i; counts must match.
	FanoutPairwise FanoutMode = "pairwise"
	// FanoutAll wires every from-instance to every to-instance.
	FanoutAll FanoutMode = "all"
	// FanoutGrouped partitions the from-instances evenly over the
	// to-instances in ordinal order: with 8 producers and 2 consumers,
	// producers 0-3 feed consumer 0 and producers 4-7 feed consumer 1.
	// The from count must be a multiple of the to count. This is how a
	// hierarchical (regional) aggregation stage is declared.
	FanoutGrouped FanoutMode = "grouped"
)

// ConnDef declares a directed connection between stages.
type ConnDef struct {
	From   string     `xml:"from,attr"`
	To     string     `xml:"to,attr"`
	Fanout FanoutMode `xml:"fanout,attr"`
}

// ParseConfig decodes an XML application descriptor and validates it.
func ParseConfig(r io.Reader) (*AppConfig, error) {
	var cfg AppConfig
	if err := xml.NewDecoder(r).Decode(&cfg); err != nil {
		return nil, fmt.Errorf("service: parse config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// ParseConfigString decodes an XML descriptor held in a string.
func ParseConfigString(s string) (*AppConfig, error) {
	return ParseConfig(strings.NewReader(s))
}

// Validate checks structural consistency: unique stage IDs, legal instance
// counts, connections referring to known stages, no connection into a
// source, and pairwise fanouts with matching counts.
func (c *AppConfig) Validate() error {
	if c.Name == "" {
		return errors.New("service: application needs a name")
	}
	if len(c.Stages) == 0 {
		return errors.New("service: application needs at least one stage")
	}
	byID := make(map[string]*StageDef, len(c.Stages))
	for i := range c.Stages {
		s := &c.Stages[i]
		if s.ID == "" {
			return errors.New("service: stage needs an id")
		}
		if s.Code == "" {
			return fmt.Errorf("service: stage %q needs a code", s.ID)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("service: duplicate stage id %q", s.ID)
		}
		if s.Instances < 0 {
			return fmt.Errorf("service: stage %q: negative instance count", s.ID)
		}
		if s.QueueCapacity < 0 || s.QueueCapacity == 1 {
			// The adaptation law needs an expected queue length D in
			// [1, C): a queue of one has no room below capacity.
			return fmt.Errorf("service: stage %q: queueCapacity %d must be 0 (default) or >= 2", s.ID, s.QueueCapacity)
		}
		if len(s.NearSources) > 0 && len(s.NearSources) != s.EffectiveInstances() {
			return fmt.Errorf("service: stage %q: %d nearSource hints for %d instances",
				s.ID, len(s.NearSources), s.EffectiveInstances())
		}
		byID[s.ID] = s
	}
	hasSource := false
	for i := range c.Stages {
		if c.Stages[i].Source {
			hasSource = true
		}
	}
	if !hasSource {
		return errors.New("service: application needs at least one source stage")
	}
	for _, conn := range c.Connections {
		from, ok := byID[conn.From]
		if !ok {
			return fmt.Errorf("service: connection from unknown stage %q", conn.From)
		}
		to, ok := byID[conn.To]
		if !ok {
			return fmt.Errorf("service: connection to unknown stage %q", conn.To)
		}
		if to.Source {
			return fmt.Errorf("service: connection into source stage %q", conn.To)
		}
		switch conn.Fanout {
		case FanoutAuto, FanoutAll:
		case FanoutPairwise:
			if from.EffectiveInstances() != to.EffectiveInstances() {
				return fmt.Errorf("service: pairwise connection %s->%s with %d vs %d instances",
					conn.From, conn.To, from.EffectiveInstances(), to.EffectiveInstances())
			}
		case FanoutGrouped:
			if to.EffectiveInstances() == 0 || from.EffectiveInstances()%to.EffectiveInstances() != 0 {
				return fmt.Errorf("service: grouped connection %s->%s needs %d instances divisible by %d",
					conn.From, conn.To, from.EffectiveInstances(), to.EffectiveInstances())
			}
		default:
			return fmt.Errorf("service: connection %s->%s: unknown fanout %q", conn.From, conn.To, conn.Fanout)
		}
	}
	return nil
}

// EffectiveInstances returns the instance count, defaulting to 1.
func (s *StageDef) EffectiveInstances() int {
	if s.Instances <= 0 {
		return 1
	}
	return s.Instances
}

// Stage returns the stage definition with the given id.
func (c *AppConfig) Stage(id string) (*StageDef, bool) {
	for i := range c.Stages {
		if c.Stages[i].ID == id {
			return &c.Stages[i], true
		}
	}
	return nil, false
}

// Marshal renders the configuration back to XML (round-trip support for
// tooling and tests).
func (c *AppConfig) Marshal() ([]byte, error) {
	return xml.MarshalIndent(c, "", "  ")
}
