// Rule checking: review a circuit for questionable constructs described as
// pattern circuits (paper §I), and demonstrate the special-signal effect of
// paper Fig. 7 — without treating VDD/GND as special, the inverter pattern
// is "found" inside every NAND gate.
//
// Run with:  go run ./examples/rulecheck
package main

import (
	"fmt"
	"log"

	"subgemini"
)

// Note there is no .GLOBAL directive: whether VDD and GND are special is
// decided per matching run via Options.Globals, so the Fig. 7 comparison
// below can run both ways on the same netlist.
const src = `
* a sloppy bus driver: an nmos pull-up and a pmos pull-down (degraded
* levels), plus one honest NAND2 gate
Mbad1 bus en VDD nmos
Mbad2 bus enb GND pmos
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
.END
`

func main() {
	file, err := subgemini.ParseNetlist(src, "driver.sp")
	if err != nil {
		log.Fatal(err)
	}
	ckt, err := file.MainCircuit("driver")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("circuit:", ckt)

	// The rule library is data: each rule is itself a pattern circuit, so
	// adding a rule means writing a subcircuit, not code.
	fmt.Println("\nrule check (VDD/GND special):")
	violations, err := subgemini.CheckRules(ckt, subgemini.StandardRules(), []string{"VDD", "GND"})
	if err != nil {
		log.Fatal(err)
	}
	if len(violations) == 0 {
		fmt.Println("  clean")
	}
	for _, v := range violations {
		fmt.Printf("  %-14s %s\n", v.Rule.Name+":", v.Describe())
	}

	// Fig. 7: the inverter pattern inside the NAND gate.
	inv := subgemini.Cell("INV")
	res, err := subgemini.Find(ckt, inv.Pattern(), subgemini.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nINV without special signals: %d instance(s)  <- false hit inside the NAND (Fig. 7)\n", len(res.Instances))
	for _, inst := range res.Instances {
		fmt.Print("   ")
		for _, d := range inst.Devices() {
			fmt.Printf(" %s", d.Name)
		}
		fmt.Println()
	}
	res, err = subgemini.Find(ckt, inv.Pattern(), subgemini.Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("INV with VDD/GND special:    %d instance(s)\n", len(res.Instances))
}
