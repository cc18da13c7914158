// Command ilas is the IL assembler/disassembler round-trip tool: it reads
// IL assembly from a file (or stdin), validates it, and either re-emits
// canonical IL or compiles it to ISA for a chosen GPU and prints the
// disassembly.
//
// Usage:
//
//	ilas [-arch RV670|RV770|RV870] [-isa] [file]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
	"amdgpubench/internal/ilc"
	"amdgpubench/internal/isa"
)

// run executes the tool against explicit streams so tests can drive it
// exactly as main does. Exit codes: 0 success, 1 bad input or compile
// failure, 2 usage error.
func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	archName := fs.String("arch", "RV770", "target GPU: RV670, RV770 or RV870")
	emitISA := fs.Bool("isa", false, "compile to ISA and disassemble")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ilas [-arch RV670|RV770|RV870] [-isa] [file]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fs.Usage()
		return 2
	}
	var src []byte
	var err error
	if fs.NArg() > 0 {
		src, err = os.ReadFile(fs.Arg(0))
	} else {
		src, err = io.ReadAll(stdin)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ilas: %v\n", err)
		return 1
	}
	k, err := il.Parse(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "ilas: %v\n", err)
		return 1
	}
	if err := k.Validate(); err != nil {
		fmt.Fprintf(stderr, "ilas: %v\n", err)
		return 1
	}
	if !*emitISA {
		fmt.Fprint(stdout, il.Assemble(k))
		return 0
	}
	arch, err := device.ParseArch(*archName)
	if err != nil {
		fmt.Fprintf(stderr, "ilas: %v\n", err)
		return 2
	}
	prog, err := ilc.Compile(k, device.Lookup(arch))
	if err != nil {
		fmt.Fprintf(stderr, "ilas: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, isa.Disassemble(prog))
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
