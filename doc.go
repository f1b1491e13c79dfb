// Package head is a from-scratch Go reproduction of "Impact-aware Maneuver
// Decision with Enhanced Perception for Autonomous Vehicle" (Liu et al.,
// ICDE 2023): the HEAD framework, its substrates, baselines, and the full
// evaluation harness.
//
// The building blocks live under internal/ (see DESIGN.md for the system
// inventory); the runnable entry points are:
//
//   - cmd/headsim — Tables I & II (end-to-end comparison and ablations)
//   - cmd/predictbench — Tables III & IV (state prediction break-down)
//   - cmd/rlbench — Tables V & VI (PAMDP solver break-down)
//   - cmd/rewardgrid — Table VII (reward coefficient search)
//   - cmd/headtrain — train + checkpoint LST-GAT and BP-DQN
//   - cmd/headviz — ASCII episode viewer and decision-stream summary
//   - examples/ — quickstart, occlusion, impactstudy, prediction, trafficwave
//
// The benchmark harness in bench_test.go regenerates every table:
//
//	go test -bench=. -benchmem
package head
