package sim

import (
	"fmt"
	"os"
	"testing"

	"dynalloc/internal/allocator"
	"dynalloc/internal/workflow"
)

// TestSequentialFingerprints pins RunSequential bit for bit: every workflow
// at 200 tasks (the production workloads at their fixed sizes) under every
// algorithm, extensions included, at seed 1 under two consumption models.
// Each cell's resultFingerprint covers the makespan and every attempt's
// status, duration and allocation.
//
// Regenerate after an *intentional* behaviour change with:
//
//	SIM_GOLDEN_UPDATE=1 go test ./internal/sim -run TestSequentialFingerprints -v
func TestSequentialFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("126 sequential runs; skipped under -short")
	}
	update := os.Getenv("SIM_GOLDEN_UPDATE") != ""
	i := 0
	for _, model := range []ConsumptionModel{RampEarly, RampLinear} {
		for _, name := range workflow.Names() {
			w := mustWorkflow(t, name, 200, 1)
			for _, alg := range allocator.ExtendedNames() {
				res, err := RunSequential(w, allocator.MustNew(alg, allocator.Config{Seed: 1}), model, 0)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", model, name, alg, err)
				}
				got := resultFingerprint(res)
				if update {
					fmt.Printf("\t0x%016x, // %s/%s/%s\n", got, model, name, alg)
				} else if want := sequentialFingerprints[i]; got != want {
					t.Errorf("%s/%s/%s: fingerprint %#016x, want %#016x", model, name, alg, got, want)
				}
				i++
			}
		}
	}
}

// sequentialFingerprints is indexed in TestSequentialFingerprints' loop
// order: model, then workflow, then algorithm.
var sequentialFingerprints = []uint64{
	0x97876e1222f52aee, // ramp-early/normal/whole-machine
	0x4412e5eb37536056, // ramp-early/normal/max-seen
	0x4a7e92d39da3f69e, // ramp-early/normal/min-waste
	0xdb493c4f83b98f75, // ramp-early/normal/max-throughput
	0x34af97d9ef670d55, // ramp-early/normal/quantized-bucketing
	0x598b2908bab173e7, // ramp-early/normal/greedy-bucketing
	0x122005a04b216ece, // ramp-early/normal/exhaustive-bucketing
	0x33e9584faa66cfb4, // ramp-early/normal/kmeans-bucketing
	0xc57fe0a01c453a58, // ramp-early/normal/percentile
	0x85b07f41bad0e3b1, // ramp-early/uniform/whole-machine
	0x46ac86122430ed31, // ramp-early/uniform/max-seen
	0x978a9639d32d3f7b, // ramp-early/uniform/min-waste
	0x5ac0dee2841b552d, // ramp-early/uniform/max-throughput
	0x09d6656010210185, // ramp-early/uniform/quantized-bucketing
	0x1017115b6b5f9e45, // ramp-early/uniform/greedy-bucketing
	0x1ad158eff5ee411f, // ramp-early/uniform/exhaustive-bucketing
	0x51e45926639437d9, // ramp-early/uniform/kmeans-bucketing
	0xd967549da30264d6, // ramp-early/uniform/percentile
	0xe1360b47ceb12323, // ramp-early/exponential/whole-machine
	0x948f650137e6ef6c, // ramp-early/exponential/max-seen
	0x8f787378f3acc889, // ramp-early/exponential/min-waste
	0x5e4840692216a298, // ramp-early/exponential/max-throughput
	0xd427f538750302cc, // ramp-early/exponential/quantized-bucketing
	0x487cc405149cb460, // ramp-early/exponential/greedy-bucketing
	0x421032a1480aae03, // ramp-early/exponential/exhaustive-bucketing
	0x385a7df7cfa7da42, // ramp-early/exponential/kmeans-bucketing
	0x6f94bea301a66746, // ramp-early/exponential/percentile
	0x717d2ae0b1110959, // ramp-early/bimodal/whole-machine
	0xda68236b0223acb1, // ramp-early/bimodal/max-seen
	0xb10776a4d3219d99, // ramp-early/bimodal/min-waste
	0x424a277b98bea7e6, // ramp-early/bimodal/max-throughput
	0x02751f9b51b72ef8, // ramp-early/bimodal/quantized-bucketing
	0x64248775f273891e, // ramp-early/bimodal/greedy-bucketing
	0xa5014073701675a3, // ramp-early/bimodal/exhaustive-bucketing
	0xc1708bdb960662b9, // ramp-early/bimodal/kmeans-bucketing
	0xc64f667a60dbd948, // ramp-early/bimodal/percentile
	0x97876e1222f52aee, // ramp-early/trimodal/whole-machine
	0x09713c47215f7527, // ramp-early/trimodal/max-seen
	0xae1ece389bb66ad9, // ramp-early/trimodal/min-waste
	0x77ea5796147a74ee, // ramp-early/trimodal/max-throughput
	0x6affcbfab6e4e587, // ramp-early/trimodal/quantized-bucketing
	0x093d5542917bc678, // ramp-early/trimodal/greedy-bucketing
	0x73ce4a088a835705, // ramp-early/trimodal/exhaustive-bucketing
	0x60e18397fbe09159, // ramp-early/trimodal/kmeans-bucketing
	0x637522c92154a307, // ramp-early/trimodal/percentile
	0x291bac93101afc04, // ramp-early/colmena/whole-machine
	0xc1a84cb6440f4e42, // ramp-early/colmena/max-seen
	0xd73d53f9f19f4565, // ramp-early/colmena/min-waste
	0xd1120f2de4c426c4, // ramp-early/colmena/max-throughput
	0xd0837734f4d5f0bd, // ramp-early/colmena/quantized-bucketing
	0xfea744712d34005e, // ramp-early/colmena/greedy-bucketing
	0xbd79b50500590957, // ramp-early/colmena/exhaustive-bucketing
	0x17009dce978be0b5, // ramp-early/colmena/kmeans-bucketing
	0x0335c4aff6ffce4d, // ramp-early/colmena/percentile
	0x4d98406584b984bf, // ramp-early/topeft/whole-machine
	0x5fe872854443bd1a, // ramp-early/topeft/max-seen
	0xc90c3df6ddcc5921, // ramp-early/topeft/min-waste
	0x5a07bd87950fe99d, // ramp-early/topeft/max-throughput
	0x2b67bca7fec33f7f, // ramp-early/topeft/quantized-bucketing
	0xc01f9315544ccbfe, // ramp-early/topeft/greedy-bucketing
	0x80f31dd3e0da0e68, // ramp-early/topeft/exhaustive-bucketing
	0xdd6132d93089f066, // ramp-early/topeft/kmeans-bucketing
	0xcea682d73d3ad648, // ramp-early/topeft/percentile
	0x97876e1222f52aee, // ramp-linear/normal/whole-machine
	0x7a5338a85809e3bc, // ramp-linear/normal/max-seen
	0x862d22d33d69a706, // ramp-linear/normal/min-waste
	0x18768a871cb40b18, // ramp-linear/normal/max-throughput
	0x685cc4c091e1fcd3, // ramp-linear/normal/quantized-bucketing
	0x2fe8f19587bf1bd4, // ramp-linear/normal/greedy-bucketing
	0x8aa35b57c0c201c1, // ramp-linear/normal/exhaustive-bucketing
	0x9fd4a7f4c048baf7, // ramp-linear/normal/kmeans-bucketing
	0xf58f0086b588784d, // ramp-linear/normal/percentile
	0x85b07f41bad0e3b1, // ramp-linear/uniform/whole-machine
	0x46ac86122430ed31, // ramp-linear/uniform/max-seen
	0x5c635756cc22b95e, // ramp-linear/uniform/min-waste
	0x124126a4101802bd, // ramp-linear/uniform/max-throughput
	0xd57547289a1375e3, // ramp-linear/uniform/quantized-bucketing
	0x0d22178872483ad3, // ramp-linear/uniform/greedy-bucketing
	0x914728c4e57190b9, // ramp-linear/uniform/exhaustive-bucketing
	0xbaea6a7b2b67a35c, // ramp-linear/uniform/kmeans-bucketing
	0x1ccea9f2e9e83cde, // ramp-linear/uniform/percentile
	0xe1360b47ceb12323, // ramp-linear/exponential/whole-machine
	0xb6e5d9c1796255c1, // ramp-linear/exponential/max-seen
	0xbb0b3c8f94216dc6, // ramp-linear/exponential/min-waste
	0x88f3366a4926c771, // ramp-linear/exponential/max-throughput
	0x9556dc4ec2863733, // ramp-linear/exponential/quantized-bucketing
	0x70956c9b22d656a4, // ramp-linear/exponential/greedy-bucketing
	0x719700d7a099d625, // ramp-linear/exponential/exhaustive-bucketing
	0xda3538aa574ae585, // ramp-linear/exponential/kmeans-bucketing
	0x4312c7f7e17063c7, // ramp-linear/exponential/percentile
	0x717d2ae0b1110959, // ramp-linear/bimodal/whole-machine
	0xd822e10ae9821033, // ramp-linear/bimodal/max-seen
	0x5ce1999342e6fb44, // ramp-linear/bimodal/min-waste
	0xedebf42c4e333f49, // ramp-linear/bimodal/max-throughput
	0xc9c8fec25489b453, // ramp-linear/bimodal/quantized-bucketing
	0x5512537a34fe5e7f, // ramp-linear/bimodal/greedy-bucketing
	0x0e0c77a425d9b3dc, // ramp-linear/bimodal/exhaustive-bucketing
	0x12f7ccd5836b43d7, // ramp-linear/bimodal/kmeans-bucketing
	0x20f306e51121ef2e, // ramp-linear/bimodal/percentile
	0x97876e1222f52aee, // ramp-linear/trimodal/whole-machine
	0xb2804898e0918671, // ramp-linear/trimodal/max-seen
	0x360179b9a77b1904, // ramp-linear/trimodal/min-waste
	0x73e675a6496bbe7a, // ramp-linear/trimodal/max-throughput
	0x08fb3150cb4e1eec, // ramp-linear/trimodal/quantized-bucketing
	0xbcac9fa9b897c2c1, // ramp-linear/trimodal/greedy-bucketing
	0xdc40aa7790b3c6b5, // ramp-linear/trimodal/exhaustive-bucketing
	0x1b371cb160ec6d5a, // ramp-linear/trimodal/kmeans-bucketing
	0xe8517687340195f0, // ramp-linear/trimodal/percentile
	0x291bac93101afc04, // ramp-linear/colmena/whole-machine
	0x0734524fb594576b, // ramp-linear/colmena/max-seen
	0x0f91c653dbd8376c, // ramp-linear/colmena/min-waste
	0xc0cd298269b8c442, // ramp-linear/colmena/max-throughput
	0xd9e67f5ffbae4501, // ramp-linear/colmena/quantized-bucketing
	0xd4275ef55312173c, // ramp-linear/colmena/greedy-bucketing
	0x88a12dccb410364c, // ramp-linear/colmena/exhaustive-bucketing
	0xe2f78a2f2589f4fc, // ramp-linear/colmena/kmeans-bucketing
	0xb258299498e04545, // ramp-linear/colmena/percentile
	0x4d98406584b984bf, // ramp-linear/topeft/whole-machine
	0x540e8f80f7b7e9d7, // ramp-linear/topeft/max-seen
	0xd64cbbd0dba54f78, // ramp-linear/topeft/min-waste
	0x0fa20cdc45b8bb27, // ramp-linear/topeft/max-throughput
	0xf8526152d0922341, // ramp-linear/topeft/quantized-bucketing
	0xb44207829eaada1d, // ramp-linear/topeft/greedy-bucketing
	0xc040a9c9b3c25382, // ramp-linear/topeft/exhaustive-bucketing
	0xede2dddf5a5904f4, // ramp-linear/topeft/kmeans-bucketing
	0xa76f70a88e97dfef, // ramp-linear/topeft/percentile
}
