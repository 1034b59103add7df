// Offload example — the paper's "Distributing Computations and Exploiting
// Computational Resources": a weak device ships a CPU-bound job (prime
// counting) to a stronger host by Remote Evaluation and compares against
// running it locally.
//
//	go run ./examples/offload
package main

import (
	"fmt"
	"log"
	"time"

	"logmob"
	"logmob/internal/app"
)

const (
	deviceRate = 250_000.0 // device speed: VM steps/second
	serverMult = 8.0       // the server is 8x faster
	primeN     = 2000
)

func main() {
	sim := logmob.NewSim(3)
	net := logmob.NewNetwork(sim)
	sn := logmob.NewSimNetwork(net)

	user, err := logmob.NewIdentity("user")
	if err != nil {
		log.Fatal(err)
	}
	trust := logmob.NewTrustStore()
	trust.TrustIdentity(user)

	mk := func(name string, class logmob.LinkClass, mutate func(*logmob.HostConfig)) *logmob.Host {
		net.AddNode(name, logmob.Position{}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := logmob.HostConfig{
			Name: name, Endpoint: ep, Scheduler: sim, Trust: trust, ServeEval: true,
			EvalFuel: 1 << 30,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		h, err := logmob.NewHost(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return h
	}
	mk("server", logmob.LAN, func(c *logmob.HostConfig) { c.ComputeRate = deviceRate * serverMult })
	device := mk("device", logmob.WLAN, nil)

	job := app.BuildPrimeJob(user)

	// Local: run the same bytecode on the device and derive the time the
	// weak CPU would take.
	if err := device.Registry().Put(job); err != nil {
		log.Fatal(err)
	}
	stack, steps, err := device.RunComponentSteps("job/primes", "main", primeN)
	if err != nil {
		log.Fatal(err)
	}
	localTime := time.Duration(float64(steps) / deviceRate * float64(time.Second))
	fmt.Printf("local:   primes(%d) = %d in %d VM steps -> %.1fs on this device\n",
		primeN, stack[0], steps, localTime.Seconds())

	// Remote: ship the job; the server's ComputeRate delays the reply by
	// its (faster) compute time, and the link adds transfer time.
	start := sim.Now()
	var remoteTime time.Duration
	var remoteResult int64
	device.Eval("server", job, "main", []int64{primeN}, func(stack []int64, err error) {
		if err != nil {
			log.Fatal(err)
		}
		remoteResult = stack[0]
		remoteTime = sim.Now() - start
	})
	sim.RunFor(time.Hour)

	fmt.Printf("offload: primes(%d) = %d via REV to an %gx server -> %.1fs end to end\n",
		primeN, remoteResult, serverMult, remoteTime.Seconds())
	fmt.Printf("\nspeedup: %.1fx (job unit was %d bytes on the wire)\n",
		localTime.Seconds()/remoteTime.Seconds(), job.Size())
}
