// Command daggen generates benchmark DAG instances in the text format.
//
// Usage:
//
//	daggen -instance spmv_N6 > spmv.dag
//	daggen -list
//	daggen -instance kNN_N5_K3 -dot > knn.dot
package main

import (
	"flag"
	"fmt"
	"os"

	"mbsp"
	"mbsp/internal/workloads"
)

func main() {
	var (
		instance = flag.String("instance", "", "named benchmark instance")
		list     = flag.Bool("list", false, "list all known instances")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT instead of the text format")
	)
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			inst, err := workloads.ByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "daggen:", err)
				os.Exit(1)
			}
			fmt.Printf("%-20s n=%3d m=%3d r0=%g\n",
				inst.Name, inst.DAG.N(), inst.DAG.M(), inst.DAG.MinCache())
		}
		return
	}
	if *instance == "" {
		fmt.Fprintln(os.Stderr, "daggen: provide -instance or -list")
		os.Exit(1)
	}
	inst, err := mbsp.InstanceByName(*instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daggen:", err)
		os.Exit(1)
	}
	if *dot {
		err = mbsp.WriteDOT(os.Stdout, inst.DAG)
	} else {
		err = mbsp.WriteDAG(os.Stdout, inst.DAG)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daggen:", err)
		os.Exit(1)
	}
}
