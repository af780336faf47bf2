// Command mamorl trains the deployable Approx-MaMoRL model and plans
// cooperative search missions with it.
//
// Usage:
//
//	mamorl train -out model.json [-seed 1] [-model-dir /var/lib/mamorl/models]
//	mamorl plan -grid grid.json -model model.json -assets 4 -radius 1.2 \
//	    -speed 3 -comm 3 [-algorithm approx|approx-pk|baseline1|baseline2|random]
package main

import (
	"flag"
	"fmt"
	"os"

	mamorl "github.com/routeplanning/mamorl"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mamorl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mamorl train  -out model.json [-seed N] [-model-dir DIR]
  mamorl plan   -grid grid.json -model model.json [flags]
  mamorl replay -grid grid.json -trace trace.json [-width N -height N]`)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	gridPath := fs.String("grid", "", "grid JSON path (required)")
	tracePath := fs.String("trace", "", "trace JSON path from `mamorl plan -trace` (required)")
	width := fs.Int("width", 72, "map width in characters")
	height := fs.Int("height", 24, "map height in characters")
	epoch := fs.Int("epoch", 0, "render only the first N epochs (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gridPath == "" || *tracePath == "" {
		return fmt.Errorf("-grid and -trace are required")
	}
	g, err := mamorl.LoadGrid(*gridPath)
	if err != nil {
		return err
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := mamorl.ReadTrace(f)
	if err != nil {
		return err
	}
	if *epoch > 0 && *epoch < len(tr.Epochs) {
		tr.Epochs = tr.Epochs[:*epoch]
		tr.Outcome = nil // a truncated trace has no final outcome
	}
	// An unknown destination (a trace file without one) is left unmarked.
	fmt.Print(mamorl.RenderMission(g, tr, nil, tr.Dest, *width, *height))
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "model.json", "output model path")
	seed := fs.Int64("seed", 1, "random seed")
	episodes := fs.Int("sample-episodes", 5, "sampling missions run on the exact solver")
	modelDir := fs.String("model-dir", "", "also register the artifact in this model registry (tmplard -model-dir warm-starts from it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("training exact MaMoRL on the 50-node sample grid and fitting Approx-MaMoRL...")
	model, err := mamorl.Train(mamorl.TrainConfig{Seed: *seed, SampleEpisodes: *episodes})
	if err != nil {
		return err
	}
	if err := model.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes of weights)\n", *out, model.ModelBytes())
	if *modelDir != "" {
		reg, err := mamorl.OpenModelRegistry(*modelDir)
		if err != nil {
			return err
		}
		man, err := model.SaveToRegistry(reg)
		if err != nil {
			return err
		}
		fmt.Printf("registered artifact %s (grid %s, seed %d) in %s\n", man.ID, man.Grid, man.Seed, *modelDir)
	}
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	gridPath := fs.String("grid", "", "grid JSON path (required)")
	modelPath := fs.String("model", "", "model JSON path (trains in-process if empty)")
	assets := fs.Int("assets", 4, "number of assets")
	radius := fs.Float64("radius", 1.2, "sensing radius in average edge weights")
	speed := fs.Int("speed", 3, "maximum asset speed")
	comm := fs.Int("comm", 3, "communication period k")
	algorithm := fs.String("algorithm", "approx", "approx, approx-pk, baseline1, baseline2, random")
	seed := fs.Int64("seed", 1, "random seed")
	tracePath := fs.String("trace", "", "write an epoch-by-epoch mission trace (JSON) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gridPath == "" {
		return fmt.Errorf("-grid is required")
	}
	g, err := mamorl.LoadGrid(*gridPath)
	if err != nil {
		return err
	}
	sc, err := mamorl.NewScenario(g, *assets, *radius, *speed, *comm)
	if err != nil {
		return err
	}

	planner, opts, err := mamorl.PlannerFor(*algorithm, sc, *seed, func() (*mamorl.Model, error) {
		if *modelPath != "" {
			return mamorl.LoadModel(*modelPath)
		}
		fmt.Println("no -model given; training in-process...")
		return mamorl.Train(mamorl.TrainConfig{Seed: *seed})
	})
	if err != nil {
		return err
	}

	var trace *mamorl.Trace
	if *tracePath != "" {
		trace = mamorl.NewTrace(sc)
		opts.OnStep = trace.Record
	}

	fmt.Printf("planning on %v\n", g.Stats())
	fmt.Printf("  %d assets, destination node %d (hidden from the team)\n", *assets, sc.Dest)
	res, err := mamorl.Run(sc, planner, opts)
	if err != nil {
		return err
	}
	fmt.Printf("result: %v\n", res)

	if trace != nil {
		trace.Finish(res)
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("trace: %d epochs written to %s (wait fraction %.0f%%)\n",
			len(trace.Epochs), *tracePath, 100*trace.WaitFraction())
	}
	return nil
}
