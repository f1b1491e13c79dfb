// Command headviz drives one episode with a chosen controller and renders
// it as an ASCII strip animation of the road around the autonomous
// vehicle, then summarizes the episode's per-step decision records — the
// same span.Decision stream the flight recorder writes to decisions.jsonl.
//
// Usage:
//
//	headviz [-controller idm|acc|tpbts|head] [-frames N] [-every N]
//	        [-jsonl file] [-seed N]
//	headviz -replay decisions.jsonl   # summarize a recorded decision stream
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"head/internal/experiments"
	"head/internal/head"
	"head/internal/obs/span"
	"head/internal/policy"
	"head/internal/rl"
	"head/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("headviz: ")
	var (
		controller = flag.String("controller", "idm", "controller: idm, acc, tpbts, or head (trains a small agent first)")
		frames     = flag.Int("frames", 12, "number of rendered frames")
		every      = flag.Int("every", 5, "render every Nth step")
		jsonlPath  = flag.String("jsonl", "", "write the episode's decision records as JSON Lines to this file")
		seed       = flag.Int64("seed", 7, "random seed")
		replay     = flag.String("replay", "", "summarize a decision stream (headviz -jsonl, or decisions.jsonl from -trace-out) instead of driving an episode")
	)
	flag.Parse()

	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			log.Fatal(err)
		}
		if err := summarize(data); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 800
	cfg.Traffic.Density = 120
	cfg.MaxSteps = 240
	env := head.NewEnv(cfg, nil, rand.New(rand.NewSource(*seed)))

	ctrl, err := buildController(*controller, cfg, *seed)
	if err != nil {
		log.Fatal(err)
	}

	// The episode runs on a traced lane, as eval's episodes do, so every
	// step emits its span.Decision record into the buffer.
	var decisions bytes.Buffer
	lane := span.New(span.Config{Decisions: &decisions}).Lane("headviz")
	env.SetTrace(lane)
	er := lane.StartEpisode(0)
	env.Reset()
	ctrl.Reset()
	rendered := 0
	for step := 0; !env.Done(); step++ {
		sr := lane.StartStep(step)
		m := ctrl.Decide(env)
		out := env.StepManeuver(m)
		sr.End()
		if rendered < *frames && env.Steps()%*every == 0 {
			renderFrame(env, m, out)
			rendered++
		}
	}
	er.End()
	fmt.Println()
	if err := summarize(decisions.Bytes()); err != nil {
		log.Fatal(err)
	}

	if *jsonlPath != "" {
		if err := os.WriteFile(*jsonlPath, decisions.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("decisions written to", *jsonlPath)
	}
}

// summarize prints the summary of a JSON Lines decision stream; live runs
// and -replay share it, so replaying a -jsonl export prints the same text.
func summarize(data []byte) error {
	ds, err := span.ReadDecisions(bytes.NewReader(data))
	if err != nil {
		return err
	}
	span.SummarizeDecisions(ds).Report(os.Stdout)
	return nil
}

func buildController(name string, cfg head.EnvConfig, seed int64) (head.Controller, error) {
	switch name {
	case "idm":
		return policy.NewIDMLC(cfg.Traffic.World), nil
	case "acc":
		return policy.NewACCLC(cfg.Traffic.World), nil
	case "tpbts":
		return policy.NewTPBTS(), nil
	case "head":
		fmt.Fprintln(os.Stderr, "training a small BP-DQN agent first (≈30s)...")
		rng := rand.New(rand.NewSource(seed))
		scale := experiments.Quick()
		trainEnv := head.NewEnv(cfg, nil, rng)
		rlCfg := rl.DefaultPDQNConfig()
		rlCfg.Warmup = 150
		agent := rl.NewBPDQN(rlCfg, trainEnv.Spec(), trainEnv.AMax(), 32, rng)
		rl.Train(agent, trainEnv, scale.TrainEpisodes, cfg.MaxSteps)
		return &head.AgentController{ControllerName: "HEAD", Agent: agent}, nil
	default:
		return nil, fmt.Errorf("unknown controller %q (want idm, acc, tpbts, or head)", name)
	}
}

// renderFrame draws the road strip ±60 m around the AV, one text row per
// lane: '>' conventional vehicles, 'A' the autonomous vehicle.
func renderFrame(env *head.Env, m world.Maneuver, out head.StepOutcome) {
	const halfSpan = 60.0
	const cols = 60 // 2 m per column
	av := env.Sim().AV.State
	lanes := env.Cfg.Traffic.World.Lanes
	rows := make([][]byte, lanes)
	for l := range rows {
		rows[l] = []byte(strings.Repeat(".", cols))
	}
	put := func(lane int, lon float64, ch byte) {
		if lane < 1 || lane > lanes {
			return
		}
		col := int((lon - av.Lon + halfSpan) / (2 * halfSpan) * cols)
		if col < 0 || col >= cols {
			return
		}
		rows[lane-1][col] = ch
	}
	for _, v := range env.Sim().Vehicles {
		put(v.State.Lat, v.State.Lon, '>')
	}
	put(av.Lat, av.Lon, 'A')
	fmt.Printf("t=%5.1fs  lon=%6.1fm  v=%5.1fm/s  maneuver=%v  r=%+.2f\n",
		float64(env.Steps())*env.Cfg.Traffic.World.Dt, av.Lon, av.V, m, out.Reward)
	for l, row := range rows {
		fmt.Printf("  lane %d |%s|\n", l+1, row)
	}
	fmt.Println()
}
