package faultconn

import "netchain/internal/netsim"

// FaultState exposes the injector's fault state to the external tests.
// Read it only while no schedule step is firing.
func (i *Injector) FaultState() *netsim.Faults { return &i.faults }
