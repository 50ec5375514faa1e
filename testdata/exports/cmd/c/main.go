// Command c runs package b.
package main

import "fixture/internal/b"

func main() { b.Run() }
