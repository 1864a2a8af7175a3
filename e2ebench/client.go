package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
)

// client is one keep-alive HTTP/1.1 connection driven in a closed
// loop: it writes a request and reads the whole response on the
// calling goroutine before the next one. It speaks only what the
// server answers (Content-Length or chunked bodies), so the client side
// of every measured round trip costs the same small, allocation-light
// amount of work.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10)}, nil
}

func (c *client) close() error { return c.conn.Close() }

// do sends one request and returns the status and the body. The body
// aliases a buffer reused by the next call. spanID, when not negative,
// is sent in the X-Bench-Span header so the server-side middleware of a
// traced run can parent its span under the client's.
func (c *client) do(method, target string, payload []byte, spanID int) (int, []byte, error) {
	c.bw.WriteString(method)
	c.bw.WriteByte(' ')
	c.bw.WriteString(target)
	c.bw.WriteString(" HTTP/1.1\r\nHost: bench\r\n")
	if spanID >= 0 {
		c.bw.WriteString("X-Bench-Span: ")
		c.bw.WriteString(strconv.Itoa(spanID))
		c.bw.WriteString("\r\n")
	}
	if payload != nil {
		c.bw.WriteString("Content-Type: text/plain\r\nContent-Length: ")
		c.bw.WriteString(strconv.Itoa(len(payload)))
		c.bw.WriteString("\r\n")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(payload)
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}

	line, err := c.line()
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !strings.HasPrefix(line, "HTTP/1.1 ") {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(line[9:12])
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.line()
		if err != nil {
			return 0, nil, err
		}
		if h == "" {
			break
		}
		name, value, _ := strings.Cut(h, ":")
		value = strings.TrimSpace(value)
		switch {
		case strings.EqualFold(name, "Content-Length"):
			if length, err = strconv.Atoi(value); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case strings.EqualFold(name, "Transfer-Encoding"):
			chunked = strings.EqualFold(value, "chunked")
		case strings.EqualFold(name, "Connection") && strings.EqualFold(value, "close"):
			return 0, nil, errors.New("server closed the keep-alive connection")
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		err = errors.New("response has neither Content-Length nor chunked encoding")
	}
	return status, c.body, err
}

func (c *client) get(target string, spanID int) (int, []byte, error) {
	return c.do("GET", target, nil, spanID)
}

func (c *client) line() (string, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(string(l), "\r\n"), nil
}

func (c *client) readN(n int) error {
	start := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *client) readChunked() error {
	for {
		l, err := c.line()
		if err != nil {
			return err
		}
		size, _, _ := strings.Cut(l, ";")
		n, err := strconv.ParseInt(strings.TrimSpace(size), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", l)
		}
		if n == 0 {
			for { // trailers end with an empty line
				if l, err = c.line(); err != nil || l == "" {
					return err
				}
			}
		}
		if err := c.readN(int(n)); err != nil {
			return err
		}
		if l, err = c.line(); err != nil || l != "" {
			return fmt.Errorf("chunk not followed by CRLF: %q %v", l, err)
		}
	}
}
