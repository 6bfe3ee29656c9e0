package fabric

import (
	"encoding/json"
	"testing"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/spm"
)

// The fabric's worker protocol is the marshaled wire.Request: a worker
// of another build decodes these bytes, re-derives the source and
// checks the config hash. The literals pin the request of a sweep and
// of a storm soak — field names, order, omissions, config hashes and
// job IDs — so a change to any of them has to come with a
// wire.ProtocolVersion bump.
func TestRequestForWireFormat(t *testing.T) {
	cfg := Config{Parallel: 2, Retries: 1, JobTimeout: 1500 * time.Millisecond}
	sweep, err := experiments.SweepSource(experiments.Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rec := spm.DefaultRecovery()
	storm, err := experiments.SoakSource(experiments.SoakOptions{
		Trials: 3, Scale: 0.02, Seed: 7, Recovery: &rec,
		Storm: &faults.StormConfig{StormStrikesPerAccess: 0.25, MeanCalmAccesses: 500, MeanStormAccesses: 200},
	}, []core.Structure{core.StructFTSPM, core.StructPureSRAM})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  *experiments.JobSource
		want string
	}{
		{"sweep", sweep, `{"kind":"sweep","sweep":{"Scale":0.1,` +
			`"Thresholds":{"PerfOverhead":0.1,"EnergyOverhead":0.3,"WriteFraction":0.01,"CellWriteFraction":0.001},"Priority":1},` +
			`"config_hash":"c9593c9473b9175b","job_ids":["sweep/qsort/pure-SRAM","sweep/sha/pure-SRAM"],` +
			`"parallel":2,"retries":1,"job_timeout_ms":1500}`},
		{"storm soak", storm, `{"kind":"soak","soak":{"Workload":"casestudy","Structure":1,"Trials":3,"Scale":0.02,"StrikesPerAccess":0,` +
			`"Dist":{"P1":0.62,"P2":0.25,"P3":0.06,"PMore":0.07},"Target":0,"Seed":7,` +
			`"Recovery":{"MaxRefetchRetries":2,"DirtyPolicy":2,"RollbackCycles":5000,"ScrubInterval":4096,"RemapThreshold":2},"Wear":null,` +
			`"Storm":{"calm_strikes_per_access":0,"storm_strikes_per_access":0.25,"mean_calm_accesses":500,"mean_storm_accesses":200,` +
			`"spatial_span":2,"thermal_factor":1,"thermal_ramp_accesses":256},` +
			`"Thresholds":{"PerfOverhead":0.1,"EnergyOverhead":0.3,"WriteFraction":0.01,"CellWriteFraction":0.001},"Priority":1},` +
			`"structures":["FTSPM","pure-SRAM"],"config_hash":"85b311798248901d",` +
			`"job_ids":["soak/FTSPM/trial/0","soak/FTSPM/trial/1"],"parallel":2,"retries":1,"job_timeout_ms":1500}`},
	} {
		req := requestFor(tc.src, cfg)
		req.JobIDs = tc.src.IDs[:2]
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s request:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
