package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json maps every op key a workload can generate to the SHA-256
// of the op's output bytes, as the program produced them when the file
// was written (`bash bench/run.sh golden`). Outputs are deterministic,
// so any change to them fails the run's correctness check.
//
//go:embed golden.json
var goldenJSON []byte

var golden = loadGolden(goldenJSON)

func loadGolden(b []byte) map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("bench: embedded golden.json: %v", err))
	}
	return m
}

// goldenPath is golden.json's place, from the repository root.
const goldenPath = "bench/golden.json"

// goldenMain runs every op of every workload's pool once and writes
// their digests to golden.json.
func goldenMain() int {
	ctx := context.Background()
	out := map[string]string{}
	for _, w := range workloads {
		if err := goldenWorkload(ctx, w, out); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(goldenPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %d digests to %s\n", len(out), goldenPath)
	return 0
}

func goldenWorkload(ctx context.Context, w *workload, out map[string]string) error {
	fx, err := w.build(ctx, scope{})
	if err != nil {
		return err
	}
	defer fx.close()
	pool := w.pool()
	for i, o := range pool {
		res, err := fx.do(ctx, 0, o, scope{})
		if err == nil && res.check != nil {
			err = res.check()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", o.Key, err)
		}
		out[o.Key] = res.digest
		fmt.Fprintf(os.Stderr, "%s %d/%d %s\n", w.name, i+1, len(pool), short(res.digest))
	}
	_, err = fx.verify()
	return err
}
