// Realproxy: the service switch over genuine TCP. Two live HTTP backend
// servers stand in for the paper's two virtual service nodes (capacity 2
// on "seattle", 1 on "tacoma"); the realswitch proxy routes real requests
// with the same weighted-round-robin policy and the same Table 3
// configuration file as the simulated switch — demonstrating SODA's
// request switching outside the simulator.
//
// Run with: go run ./examples/realproxy
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/realswitch"
)

func serveBackend(b *realswitch.Backend) (ip string, port int, stop func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: b}
	go srv.Serve(ln)
	host, portStr, _ := net.SplitHostPort(ln.Addr().String())
	p, _ := strconv.Atoi(portStr)
	return host, p, func() { srv.Close() }
}

func main() {
	// Two real backends, capacity 2:1 — the paper's node layout.
	seattle := &realswitch.Backend{Name: "seattle-node", Payload: []byte(strings.Repeat("s", 1024))}
	tacoma := &realswitch.Backend{Name: "tacoma-node", Payload: []byte(strings.Repeat("t", 1024))}
	ip1, p1, stop1 := serveBackend(seattle)
	defer stop1()
	ip2, p2, stop2 := serveBackend(tacoma)
	defer stop2()

	cfg := repro.NewConfigFile("webcontent")
	if err := cfg.SetEntries([]repro.BackendEntry{
		{IP: repro.IP(ip1), Port: p1, Capacity: 2},
		{IP: repro.IP(ip2), Port: p2, Capacity: 1},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service configuration file (live backends):\n%s\n", cfg.Render())

	proxy := repro.NewLiveProxy(cfg)
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: proxy}
	go srv.Serve(front)
	defer srv.Close()
	url := "http://" + front.Addr().String()
	fmt.Println("service switch listening on", url)

	// 30 genuine HTTP requests through the switch.
	for i := 0; i < 30; i++ {
		resp, err := http.Get(url)
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	fmt.Printf("\nafter 30 real requests: seattle-node served %d, tacoma-node served %d (want 2:1)\n",
		seattle.Served(), tacoma.Served())

	// Resize live: drop tacoma from the configuration file.
	cfg.RemoveEntry(repro.IP(ip2), p2)
	for i := 0; i < 10; i++ {
		resp, err := http.Get(url)
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	fmt.Printf("after removing tacoma-node: seattle-node %d, tacoma-node %d (tacoma frozen)\n",
		seattle.Served(), tacoma.Served())
}
