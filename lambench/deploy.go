package main

import (
	"fmt"
	"net/http"
	"time"

	"laminar"
)

// The deployment under test: the README quickstart configuration started
// through the public façade — clustered index probed adaptively toward a
// 0.9 recall target, retrain cooldown, query cache and /metrics on, no
// simulated WAN round trip and no simulated install delay.

const (
	benchUser = "bench"
	otherUser = "other"
	password  = "bench-password"
	// cacheEntries sizes the query cache. Every query the benchmark sends
	// is distinct, so the cache only ever misses.
	cacheEntries = 4096
)

func serverOptions(registryPath string) laminar.ServerOptions {
	return laminar.ServerOptions{
		Index:                "clustered",
		IndexRecallTarget:    0.9,
		IndexRetrainCooldown: 5 * time.Minute,
		Metrics:              true,
		CacheSize:            cacheEntries,
		RegistryPath:         registryPath,
	}
}

// deployment is one running server and the benchmark's client session.
type deployment struct {
	srv  *laminar.Server
	url  string
	cli  *laminar.Client // the querying user, on one keep-alive connection
	path string          // registry snapshot path
}

// newClient returns a client whose transport holds at most one
// connection, so a closed loop of requests reuses a single keep-alive
// connection.
func newClient(url string) *laminar.Client {
	c := laminar.NewClient(url)
	c.Web().HTTP = &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	return c
}

// startServer builds and starts a server on a loopback port. NewServer
// loads the snapshot at path when one exists.
func startServer(path string) (*laminar.Server, string, error) {
	srv, err := newServer(path)
	if err != nil {
		return nil, "", err
	}
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("starting server: %w", err)
	}
	return srv, url, nil
}

// newServer turns the façade's fail-fast panics (a damaged snapshot, a
// bad option) into errors.
func newServer(path string) (srv *laminar.Server, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("building server: %v", r)
		}
	}()
	return laminar.NewServer(serverOptions(path)), nil
}

// login opens a session for an existing user.
func login(url, user string) (*laminar.Client, error) {
	c := newClient(url)
	if err := c.Login(user, password); err != nil {
		return nil, fmt.Errorf("login %s: %w", user, err)
	}
	return c, nil
}

func (d *deployment) close() {
	d.srv.Close()
	d.cli.Web().HTTP.CloseIdleConnections()
}
