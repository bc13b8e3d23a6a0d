package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds the daemon's process-wide structured logger: a slog
// TextHandler or JSONHandler (per format, "text" by default) at the given
// level ("info" by default), wrapped so that every record emitted with a
// request-scoped context automatically carries a request_id attribute.
func NewLogger(w io.Writer, format, level string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if strings.EqualFold(format, "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(ContextHandler(h))
}

// ContextHandler wraps h so records logged with a context carrying a
// Timeline gain a request_id attribute.  Handlers built by NewLogger
// already have it; use this directly when supplying a custom handler.
func ContextHandler(h slog.Handler) slog.Handler { return ctxHandler{h} }

type ctxHandler struct{ slog.Handler }

func (c ctxHandler) Handle(ctx context.Context, rec slog.Record) error {
	if id := RequestID(ctx); id != "" {
		rec.AddAttrs(slog.String("request_id", id))
	}
	return c.Handler.Handle(ctx, rec)
}

func (c ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return ctxHandler{c.Handler.WithAttrs(attrs)}
}

func (c ctxHandler) WithGroup(name string) slog.Handler {
	return ctxHandler{c.Handler.WithGroup(name)}
}

// Discard returns a logger that drops everything — the default when no log
// sink is configured, so library code can call log methods unconditionally.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// LogfLogger adapts a printf-style sink into a structured logger: each
// record renders as "msg key=value ..." and goes out as one logf call.
// It keeps the legacy server Config.Logf test hook working under slog.
func LogfLogger(logf func(format string, args ...any)) *slog.Logger {
	return slog.New(ContextHandler(logfHandler{logf: logf}))
}

type logfHandler struct {
	logf  func(format string, args ...any)
	attrs []slog.Attr
}

func (h logfHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h logfHandler) Handle(_ context.Context, rec slog.Record) error {
	var b strings.Builder
	b.WriteString(rec.Message)
	for _, a := range h.attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
	}
	rec.Attrs(func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		return true
	})
	h.logf("%s", b.String())
	return nil
}

func (h logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return logfHandler{logf: h.logf, attrs: append(append([]slog.Attr{}, h.attrs...), attrs...)}
}

func (h logfHandler) WithGroup(string) slog.Handler { return h }
