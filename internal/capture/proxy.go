package capture

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"time"
)

// Proxy is an HTTP forward proxy that relays plain-HTTP traffic and
// feeds every exchange to an Observer. CONNECT (TLS) tunnels are relayed
// opaquely — encrypted traffic is not observable by design; deployments
// wanting HTTPS capture would use a browser-side hook instead.
//
// Proxy implements http.Handler; serve it with net/http.
type Proxy struct {
	// route picks the Observer per request. It runs before the request
	// is cloned for upstream, so it may strip routing headers the origin
	// must not see. Returning nil rejects the request.
	route func(*http.Request) *Observer
	// transport performs upstream fetches.
	transport http.RoundTripper
	// titleSniffLimit bounds how much of an HTML body is searched for a
	// <title> element.
	titleSniffLimit int
}

// NewProxy builds a proxy feeding every exchange to observer.
func NewProxy(observer *Observer) *Proxy {
	return NewRoutedProxy(func(*http.Request) *Observer { return observer })
}

// NewRoutedProxy builds a proxy that resolves the Observer per request —
// the multi-tenant capture path, where a tenant header or credential
// selects whose history an exchange lands in. route may mutate the
// request (typically to strip the tenant header before it goes
// upstream); returning nil rejects the exchange with 400.
func NewRoutedProxy(route func(*http.Request) *Observer) *Proxy {
	return &Proxy{
		route: route,
		transport: &http.Transport{
			// The proxy must not follow redirects itself — the client
			// does, and the Observer wants to see each hop.
			DisableCompression:    true,
			ResponseHeaderTimeout: 30 * time.Second,
		},
		titleSniffLimit: 64 << 10,
	}
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodConnect {
		p.tunnel(w, r)
		return
	}
	if !r.URL.IsAbs() {
		http.Error(w, "capture: proxy requires absolute-URI requests", http.StatusBadRequest)
		return
	}

	// Resolve before cloning: route may strip the tenant header so it
	// never leaves the proxy.
	observer := p.route(r)
	if observer == nil {
		http.Error(w, "capture: unroutable request (missing or invalid tenant)", http.StatusBadRequest)
		return
	}

	outReq := r.Clone(r.Context())
	outReq.RequestURI = "" // client requests must not set this
	removeHopByHop(outReq.Header)

	resp, err := p.transport.RoundTrip(outReq)
	if err != nil {
		http.Error(w, "capture: upstream: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()

	obs := Observation{
		URL:                r.URL,
		Referer:            r.Header.Get("Referer"),
		Status:             resp.StatusCode,
		ContentType:        resp.Header.Get("Content-Type"),
		ContentDisposition: resp.Header.Get("Content-Disposition"),
		Location:           resp.Header.Get("Location"),
	}

	// Copy headers and stream the body, teeing HTML prefixes for title
	// extraction.
	hdr := w.Header()
	for k, vv := range resp.Header {
		for _, v := range vv {
			hdr.Add(k, v)
		}
	}
	removeHopByHop(hdr)
	w.WriteHeader(resp.StatusCode)

	if strings.HasPrefix(contentTypeBase(obs.ContentType), "text/html") {
		var sniff bytes.Buffer
		tee := io.TeeReader(io.LimitReader(resp.Body, int64(p.titleSniffLimit)), &sniff)
		if _, err := io.Copy(w, tee); err == nil {
			// Stream any remainder past the sniff limit.
			io.Copy(w, resp.Body) //nolint:errcheck // client gone is fine
		}
		obs.Title = extractTitle(sniff.Bytes())
	} else {
		io.Copy(w, resp.Body) //nolint:errcheck // client gone is fine
	}

	observer.Observe(obs)
}

// tunnel relays a CONNECT request without observation.
func (p *Proxy) tunnel(w http.ResponseWriter, r *http.Request) {
	upstream, err := net.DialTimeout("tcp", r.Host, 10*time.Second)
	if err != nil {
		http.Error(w, "capture: connect: "+err.Error(), http.StatusBadGateway)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		upstream.Close()
		http.Error(w, "capture: hijacking unsupported", http.StatusInternalServerError)
		return
	}
	client, buf, err := hj.Hijack()
	if err != nil {
		upstream.Close()
		return
	}
	buf.WriteString("HTTP/1.1 200 Connection Established\r\n\r\n") //nolint:errcheck
	buf.Flush()                                                    //nolint:errcheck
	go func() {
		defer upstream.Close()
		defer client.Close()
		io.Copy(upstream, client) //nolint:errcheck
	}()
	go func() {
		io.Copy(client, upstream) //nolint:errcheck
	}()
}

var hopByHop = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func removeHopByHop(h http.Header) {
	for _, k := range hopByHop {
		h.Del(k)
	}
}

var titleRE = regexp.MustCompile(`(?is)<title[^>]*>(.*?)</title>`)

// extractTitle pulls the first <title> out of an HTML prefix.
func extractTitle(body []byte) string {
	m := titleRE.FindSubmatch(body)
	if m == nil {
		return ""
	}
	title := strings.TrimSpace(string(m[1]))
	// Collapse internal whitespace runs.
	return strings.Join(strings.Fields(title), " ")
}
