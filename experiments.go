package multimap

import "repro/internal/experiments"

// ExperimentConfig scopes a figure regeneration run; zero fields take
// the paper's values (Defaults), and Validate checks every range. The
// fields, each mirrored by an mmbench flag, are documented on the
// struct itself: go doc repro/internal/experiments.Config.
type ExperimentConfig = experiments.Config

// ExperimentIDs lists the regenerable paper artifacts plus the two
// analysis tables from §4.3-§4.4. The serving benchmarks beyond the
// paper run in cmd/mmbench, on the public Store.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTable is a printable experiment result.
type ExperimentTable = experiments.Table

// RunExperiment regenerates one of the paper's figures and returns its
// table. See ExperimentIDs for valid ids.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, error) {
	return experiments.Run(id, cfg)
}
