package multimap

import (
	"fmt"

	"repro/internal/experiments"
)

// ExperimentConfig scopes a figure regeneration run; zero fields take
// the paper's values (Defaults), and Validate checks every range. The
// fields, one per mmbench flag, are documented on the struct itself:
// go doc repro/internal/experiments.Config.
type ExperimentConfig = experiments.Config

// ExperimentIDs lists the regenerable paper artifacts plus the two
// analysis tables from §4.3-§4.4 and the beyond-the-paper concurrent
// serving benchmarks ("serve", "burst", and the multi-tenant pool
// churn benchmark "tenants").
func ExperimentIDs() []string {
	return []string{"fig1a", "fig1b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "eq5", "space", "serve", "burst", "tenants"}
}

// ExperimentTable is a printable experiment result.
type ExperimentTable = experiments.Table

// RunExperiment regenerates one of the paper's figures and returns its
// table. See ExperimentIDs for valid ids.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, error) {
	switch id {
	case "fig1a":
		return experiments.Fig1aSeekProfile(cfg)
	case "fig1b", "adjacency":
		return experiments.Fig1bAdjacency(cfg)
	case "fig6a":
		t, _, err := experiments.Fig6aBeams(cfg)
		return t, err
	case "fig6b":
		t, _, err := experiments.Fig6bRanges(cfg)
		return t, err
	case "fig7a":
		t, _, err := experiments.Fig7aQuakeBeams(cfg)
		return t, err
	case "fig7b":
		t, _, err := experiments.Fig7bQuakeRanges(cfg)
		return t, err
	case "fig8":
		t, _, err := experiments.Fig8OLAP(cfg)
		return t, err
	case "eq5":
		return experiments.DimensionSupport(cfg)
	case "space":
		return experiments.SpaceEfficiency(cfg)
	case "serve":
		t, _, err := experiments.ServiceThroughput(cfg)
		return t, err
	case "burst":
		t, _, err := experiments.BurstTraffic(cfg)
		return t, err
	case "tenants":
		t, _, err := runTenants(cfg)
		return t, err
	default:
		return nil, fmt.Errorf("multimap: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
}
