"""Tiny stand-in for a clasp-style solver, driven by its first argument.

Usage: python3 stub_solver.py MODE [input-file]

Reads the program from the input file when given, from stdin otherwise, and
prints canned clasp-shaped output so the bridge's parsing, exit-code and
plumbing behavior can be exercised without a real solver.  Mode `sleep`
first writes its pid to the file named by STUB_SOLVER_PID_FILE, if set.
"""
import os
import re
import sys
import time


def read_program() -> str:
    if len(sys.argv) > 2:
        with open(sys.argv[2], encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "echo"
    if mode == "echo":
        # answer with every declared argument accepted
        program = read_program()
        names = re.findall(r"arg\(([a-z][a-z0-9_]*)\)\.", program)
        print("stub version 0.0.0")
        print("Solving...")
        print("Answer: 1")
        print(" ".join(f"in({name})" for name in names))
        print("SATISFIABLE")
        return 10
    if mode == "two":
        read_program()
        print("Answer: 1")
        print("in(c) in(a) arg(b) out(d)")
        print("Answer: 2")
        print("in(b)")
        print("SATISFIABLE")
        return 10
    if mode == "dup":
        read_program()
        print("Answer: 1")
        print("in(a)")
        print("Answer: 2")
        print("in(a)")
        print("SATISFIABLE")
        return 10
    if mode == "empty":
        read_program()
        print("Answer: 1")
        print("")
        print("SATISFIABLE")
        return 10
    if mode == "unsat":
        read_program()
        print("UNSATISFIABLE")
        return 20
    if mode == "garbage":
        read_program()
        print("hello world")
        return 0
    if mode == "fail":
        read_program()
        print("stub exploded", file=sys.stderr)
        return 1
    if mode == "marker_only":
        read_program()
        sys.stdout.write("Answer: 1")
        return 10
    if mode == "alien":
        read_program()
        print("Answer: 1")
        print("in(zzz_not_there)")
        print("SATISFIABLE")
        return 10
    if mode == "sleep":
        # leave the pid where a test can check that a kill took this process
        pid_file = os.environ.get("STUB_SOLVER_PID_FILE")
        if pid_file:
            with open(pid_file, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
        read_program()
        time.sleep(10)
        return 0
    print(f"unknown stub mode {mode!r}", file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main())
