// EF admission control (paper Section 6.3): an ingress controller
// accepts a new EF flow only if, with it installed, every admitted EF
// flow still meets its end-to-end deadline under the trajectory bounds
// — deterministic, per-flow guarantees without per-flow state in core
// routers. The example shapes candidates through a token bucket at the
// boundary (reference [12]'s conditioning) and admits calls until the
// backbone saturates.
package main

import (
	"fmt"
	"log"

	"trajan/internal/diffserv"
	"trajan/internal/feasibility"
	"trajan/internal/model"
	"trajan/internal/trajectory"
)

func main() {
	net := model.UnitDelayNetwork()

	// Pre-installed lower-class background on the backbone: charged to
	// EF flows only as Lemma-4 non-preemption blocking.
	bulk := model.UniformFlow("bulk", 60, 0, 0, 12, 0, 1, 2, 3)
	bulk.Class = model.ClassBE
	installed := []*model.Flow{bulk}

	// Boundary conditioning: each call contract is one packet per 40
	// ticks with a burst of 2; the shaper's worst added delay becomes
	// release jitter in the admitted flow's descriptor.
	shaper := &diffserv.TokenBucket{Rate: 1, RatePeriod: 40, Burst: 2}
	if err := shaper.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("candidate  verdict   EF bounds after decision")
	admitted := 0
	for k := 0; k < 12; k++ {
		call := model.UniformFlow(fmt.Sprintf("call%02d", k), 40, 2, 70, 2, 0, 1, 2, 3)
		ok, rep, err := feasibility.AdmitEF(net, trajectory.Options{}, installed, call)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "ADMIT"
		if !ok {
			verdict = "reject"
		} else {
			admitted++
			installed = append(installed, call)
		}
		var bounds []model.Time
		for _, v := range rep.Verdicts {
			bounds = append(bounds, v.Bound)
		}
		fmt.Printf("%-9s  %-7s  %v\n", call.Name, verdict, bounds)
		if !ok {
			break
		}
	}
	fmt.Printf("\nadmitted %d calls; %d flows installed (incl. background)\n",
		admitted, len(installed))
}
