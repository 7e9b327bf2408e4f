#include "shell/shell.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include "blocks/catalog.h"
#include "designs/library.h"
#include "io/dot.h"
#include "io/netlist.h"
#include "partition/engine.h"
#include "server/server.h"

namespace eblocks::shell {

namespace {

constexpr char kHelp[] = R"(commands:
  new <name...>                  start a fresh design
  block <instance> <type>        place a catalog block
  connect <a>.<port> <b>.<port>  wire an output to an input
  design <table-1 name...>       load a library design
  netlist                        print the design as a netlist
  validate                       structural check
  sim                            (re)start the simulator
  set <sensor> <0|1>             drive a sensor and settle
  press <sensor>                 1-then-0 pulse
  tick [n]                       advance the timer
  outputs                        print output block values
  probe <block> <var>            read a block variable
  synth [algo] [ins outs] [thr] [opts...]
                                 run synthesis (default paredown 2 2;
                                 opts, any order: prune | no-prune;
                                 limit=<seconds> pocket=<blocks>
                                 rounds=<n>)
  algorithms                     list registered partitioning algorithms
  cache [on|off|dir=<path>]      solution cache for synth (on = in-memory,
                                 dir= = persistent on disk, off = detach;
                                 bare 'cache' prints status and stats)
  serve start|stop|status        synthesis daemon over the wire protocol
                                 (start opts, any order: addr=<host:port>
                                 jobs=<n> queue=<n>; shares this shell's
                                 cache; see docs/server.md)
  report                         print the last synthesis report
  use synth|source               choose the network 'sim' runs
  dot                            print the active network as DOT
  emitc <prog-instance>          print generated C for a prog block
  help                           this text
  quit                           leave the shell
)";

/// Strict numeric parse of a keyword value: the whole text must be the
/// number (so "limit=5x" is an error, not 5).
bool parseNumber(const std::string& text, double* value) {
  try {
    std::size_t pos = 0;
    *value = std::stod(text, &pos);
    return !text.empty() && pos == text.size();
  } catch (...) {
    return false;
  }
}

bool parseNumber(const std::string& text, int* value) {
  try {
    std::size_t pos = 0;
    *value = std::stoi(text, &pos);
    return !text.empty() && pos == text.size();
  } catch (...) {
    return false;
  }
}

std::string restOfLine(std::istream& in) {
  std::string rest;
  std::getline(in, rest);
  const std::size_t start = rest.find_first_not_of(" \t");
  if (start == std::string::npos) return "";
  const std::size_t end = rest.find_last_not_of(" \t\r");
  return rest.substr(start, end - start + 1);
}

bool parseEndpointRef(const std::string& token, std::string& block,
                      int& port) {
  const std::size_t dot = token.rfind('.');
  if (dot == std::string::npos || dot + 1 >= token.size()) return false;
  block = token.substr(0, dot);
  try {
    port = std::stoi(token.substr(dot + 1));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

Shell::Shell() : source_("design") {}

Shell::~Shell() {
  if (server_) server_->stop(/*cancelInFlight=*/true);
}

const Network& Shell::activeNetwork() const {
  return useSynth_ && synthResult_ ? synthResult_->network : source_;
}

bool Shell::ensureSimulator(std::ostream& out) {
  if (simulator_) return true;
  try {
    simulator_ = std::make_unique<sim::Simulator>(activeNetwork());
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return false;
  }
  return true;
}

bool Shell::execute(const std::string& line, std::ostream& out) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return true;
  try {
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      out << kHelp;
    } else if (cmd == "new") {
      std::string name = restOfLine(in);
      source_ = Network(name.empty() ? "design" : name);
      synthResult_.reset();
      simulator_.reset();
      useSynth_ = false;
      out << "new design '" << source_.name() << "'\n";
    } else if (cmd == "block") {
      cmdBlock(in, out);
    } else if (cmd == "connect") {
      cmdConnect(in, out);
    } else if (cmd == "design") {
      cmdDesign(in, out);
    } else if (cmd == "netlist") {
      out << io::writeNetlist(source_);
    } else if (cmd == "validate") {
      const auto problems = activeNetwork().validate();
      if (problems.empty()) {
        out << "ok\n";
      } else {
        for (const auto& p : problems) out << "problem: " << p << "\n";
      }
    } else if (cmd == "sim") {
      cmdSim(out);
    } else if (cmd == "set") {
      cmdSet(in, out, false);
    } else if (cmd == "press") {
      cmdSet(in, out, true);
    } else if (cmd == "tick") {
      cmdTick(in, out);
    } else if (cmd == "outputs") {
      cmdOutputs(out);
    } else if (cmd == "probe") {
      cmdProbe(in, out);
    } else if (cmd == "synth") {
      cmdSynth(in, out);
    } else if (cmd == "cache") {
      cmdCache(in, out);
    } else if (cmd == "serve") {
      cmdServe(in, out);
    } else if (cmd == "algorithms") {
      for (const partition::Strategy& s : partition::strategies())
        out << "  " << s.name << "  - " << s.description << "\n";
    } else if (cmd == "report") {
      if (synthResult_) {
        out << synthResult_->report();
      } else {
        out << "error: no synthesis has run\n";
      }
    } else if (cmd == "use") {
      cmdUse(in, out);
    } else if (cmd == "dot") {
      out << io::toDot(activeNetwork());
    } else if (cmd == "emitc") {
      cmdEmitC(in, out);
    } else {
      out << "error: unknown command '" << cmd << "' (try 'help')\n";
    }
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
  }
  return true;
}

void Shell::run(std::istream& in, std::ostream& out, bool echo) {
  std::string line;
  while (std::getline(in, line)) {
    if (echo) out << "> " << line << "\n";
    if (!execute(line, out)) return;
  }
}

void Shell::cmdBlock(std::istream& args, std::ostream& out) {
  std::string instance, type;
  if (!(args >> instance >> type)) {
    out << "usage: block <instance> <type>\n";
    return;
  }
  source_.addBlock(instance, blocks::defaultCatalog().get(type));
  simulator_.reset();
  out << "placed " << instance << " (" << type << ")\n";
}

void Shell::cmdConnect(std::istream& args, std::ostream& out) {
  std::string a, b;
  if (!(args >> a >> b)) {
    out << "usage: connect <from>.<port> <to>.<port>\n";
    return;
  }
  std::string fromBlock, toBlock;
  int fromPort = 0, toPort = 0;
  if (!parseEndpointRef(a, fromBlock, fromPort) ||
      !parseEndpointRef(b, toBlock, toPort)) {
    out << "usage: connect <from>.<port> <to>.<port>\n";
    return;
  }
  const auto from = source_.findBlock(fromBlock);
  const auto to = source_.findBlock(toBlock);
  if (!from || !to) {
    out << "error: unknown block\n";
    return;
  }
  source_.connect(*from, fromPort, *to, toPort);
  simulator_.reset();
  out << "connected " << a << " -> " << b << "\n";
}

void Shell::cmdDesign(std::istream& args, std::ostream& out) {
  const std::string name = restOfLine(args);
  source_ = designs::byName(name);
  synthResult_.reset();
  simulator_.reset();
  useSynth_ = false;
  out << "loaded '" << source_.name() << "' (" << source_.blockCount()
      << " blocks, " << source_.innerBlocks().size() << " inner)\n";
}

void Shell::cmdSim(std::ostream& out) {
  simulator_.reset();
  if (ensureSimulator(out))
    out << "simulating '" << activeNetwork().name() << "'\n";
}

void Shell::cmdSet(std::istream& args, std::ostream& out, bool press) {
  std::string sensor;
  std::int64_t value = 0;
  if (!(args >> sensor) || (!press && !(args >> value))) {
    out << (press ? "usage: press <sensor>\n" : "usage: set <sensor> <0|1>\n");
    return;
  }
  if (!ensureSimulator(out)) return;
  if (press) {
    simulator_->apply(sensor, 1);
    simulator_->apply(sensor, 0);
  } else {
    simulator_->apply(sensor, value);
  }
  cmdOutputs(out);
}

void Shell::cmdTick(std::istream& args, std::ostream& out) {
  int n = 1;
  args >> n;
  if (!ensureSimulator(out)) return;
  for (int i = 0; i < n; ++i) simulator_->tick();
  cmdOutputs(out);
}

void Shell::cmdOutputs(std::ostream& out) {
  if (!ensureSimulator(out)) return;
  const Network& net = simulator_->network();
  bool any = false;
  for (BlockId b = 0; b < net.blockCount(); ++b)
    if (net.isOutput(b)) {
      out << "  " << net.block(b).name << " = "
          << simulator_->outputValue(b) << "\n";
      any = true;
    }
  if (!any) out << "  (no output blocks)\n";
}

void Shell::cmdProbe(std::istream& args, std::ostream& out) {
  std::string block, var;
  if (!(args >> block >> var)) {
    out << "usage: probe <block> <var>\n";
    return;
  }
  if (!ensureSimulator(out)) return;
  const auto id = simulator_->network().findBlock(block);
  if (!id) {
    out << "error: unknown block '" << block << "'\n";
    return;
  }
  out << "  " << block << "." << var << " = " << simulator_->probe(*id, var)
      << "\n";
}

void Shell::cmdSynth(std::istream& args, std::ostream& out) {
  synth::SynthOptions options;
  std::string algorithm;
  if (args >> algorithm) {
    if (!partition::findStrategy(algorithm)) {
      out << "error: unknown algorithm '" << algorithm
          << "' (try 'algorithms')\n";
      return;
    }
    options.algorithm = algorithm;
  }
  // Positional, each group optional: a group that fails on its first
  // token leaves it in place (clear() resets the failbit) so a trailing
  // keyword works with or without the numeric groups.  A ports
  // group missing its second number is an error, not a silent default.
  int ins = 0, outs = 0;
  if (args >> ins) {
    if (!(args >> outs)) {
      out << "usage: synth [algo] [ins outs] [threads] [prune|no-prune] "
             "[limit=<s>] [pocket=<k>] [rounds=<n>]\n";
      return;
    }
    options.spec.inputs = ins;
    options.spec.outputs = outs;
  } else {
    args.clear();
  }
  int threads = 0;
  if (args >> threads) {
    if (threads < 0) {
      out << "error: thread count must be >= 0 (0 = one per hardware "
             "thread)\n";
      return;
    }
    options.engine.threads = threads;
  } else {
    args.clear();
  }
  // Trailing keywords, in any order, at most one of each: a pruning
  // flag and the heuristic knobs (limit= applies to every anytime
  // strategy; pocket=/rounds= steer lns).  Anything else is an error --
  // never a silent default.
  bool havePruning = false;
  bool haveLimit = false, havePocket = false, haveRounds = false;
  std::string word;
  while (args >> word) {
    if ((word == "prune" || word == "no-prune") && !havePruning) {
      options.engine.pruningBound = (word == "prune");
      havePruning = true;
    } else if (word.rfind("limit=", 0) == 0 && !haveLimit) {
      double seconds = 0.0;
      if (!parseNumber(word.substr(6), &seconds) || !std::isfinite(seconds) ||
          seconds < 0) {
        out << "error: limit= expects finite seconds >= 0 (0 = no limit)\n";
        return;
      }
      options.engine.timeLimitSeconds = seconds;
      haveLimit = true;
    } else if (word.rfind("pocket=", 0) == 0 && !havePocket) {
      int pocket = 0;
      if (!parseNumber(word.substr(7), &pocket) || pocket < 0) {
        out << "error: pocket= expects a block count >= 0 (0 = auto)\n";
        return;
      }
      options.engine.lnsPocket = pocket;
      havePocket = true;
    } else if (word.rfind("rounds=", 0) == 0 && !haveRounds) {
      int rounds = 0;
      if (!parseNumber(word.substr(7), &rounds) || rounds < 0) {
        out << "error: rounds= expects a round count >= 0 (0 = until the "
               "time limit)\n";
        return;
      }
      options.engine.lnsRounds = rounds;
      haveRounds = true;
    } else {
      out << "error: unknown synth option '" << word
          << "' (pruning: prune | no-prune; heuristics: limit=<s> "
             "pocket=<k> rounds=<n>)\n";
      return;
    }
  }
  options.cache = cache_;
  synthResult_ = synth::synthesize(source_, options);
  simulator_.reset();
  out << synthResult_->report();
}

void Shell::cmdCache(std::istream& args, std::ostream& out) {
  std::string word;
  if (!(args >> word) || word == "status") {
    if (!cache_) {
      out << "cache: off\n";
      return;
    }
    const cache::StoreStats s = cache_->stats();
    out << "cache: on ("
        << (cache_->directory().empty() ? std::string("in-memory")
                                        : "dir=" + cache_->directory())
        << ", " << cache_->recordCount() << " records, "
        << cache_->totalBytes() << " bytes)\n";
    out << "  hits=" << s.hits << " misses=" << s.misses
        << " warm-starts=" << s.warmStarts << " inserts=" << s.inserts
        << " evictions=" << s.evictions << " corrupt=" << s.corrupt << "\n";
    return;
  }
  if (word == "on") {
    cache_ = std::make_shared<cache::SolutionStore>(cache::StoreOptions{});
    out << "cache: on (in-memory)\n";
  } else if (word == "off") {
    cache_.reset();
    out << "cache: off\n";
  } else if (word.rfind("dir=", 0) == 0 && word.size() > 4) {
    cache::StoreOptions options;
    options.directory = word.substr(4);
    cache_ = std::make_shared<cache::SolutionStore>(std::move(options));
    out << "cache: on (dir=" << cache_->directory() << ", "
        << cache_->recordCount() << " records)\n";
  } else {
    out << "usage: cache [on|off|dir=<path>|status]\n";
  }
}

void Shell::cmdServe(std::istream& args, std::ostream& out) {
  std::string sub;
  if (!(args >> sub)) sub = "status";
  if (sub == "status") {
    if (!server_) {
      out << "serve: not running\n";
      return;
    }
    const server::ServerStats s = server_->stats();
    out << "serve: listening on port " << server_->port() << " ("
        << s.connectionsNow << " connections, " << s.queuedNow << " queued, "
        << s.runningNow << " running)\n";
    out << "  accepted=" << s.accepted << " completed=" << s.completed
        << " overloaded=" << s.rejectedOverload
        << " cancelled=" << s.cancelled << " failed=" << s.synthFailed
        << " bad-requests=" << s.badRequests
        << " bad-frames=" << s.protocolErrors << "\n";
    return;
  }
  if (sub == "stop") {
    if (!server_) {
      out << "error: serve: not running\n";
      return;
    }
    server_->stop();
    const server::ServerStats s = server_->stats();
    server_.reset();
    out << "serve: stopped (" << s.completed << " requests served)\n";
    return;
  }
  if (sub != "start") {
    out << "usage: serve start|stop|status [addr=<host:port>] [jobs=<n>] "
           "[queue=<n>]\n";
    return;
  }
  if (server_) {
    out << "error: serve: already running on port " << server_->port()
        << "\n";
    return;
  }
  server::ServerOptions options;
  options.store = cache_;  // one store behind the prompt and the wire
  // Trailing keywords, any order, each at most once -- same discipline
  // as synth's option tail: anything unknown is an error, never a
  // silent default.
  bool haveAddr = false, haveJobs = false, haveQueue = false;
  std::string word;
  while (args >> word) {
    if (word.rfind("addr=", 0) == 0 && !haveAddr) {
      const std::string addr = word.substr(5);
      const std::size_t colon = addr.rfind(':');
      int port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !parseNumber(addr.substr(colon + 1), &port) || port < 0 ||
          port > 65535) {
        out << "error: addr= expects host:port\n";
        return;
      }
      options.host = addr.substr(0, colon);
      options.port = port;
      haveAddr = true;
    } else if (word.rfind("jobs=", 0) == 0 && !haveJobs) {
      int jobs = 0;
      if (!parseNumber(word.substr(5), &jobs) || jobs < 1) {
        out << "error: jobs= expects an executor count >= 1\n";
        return;
      }
      options.executors = jobs;
      haveJobs = true;
    } else if (word.rfind("queue=", 0) == 0 && !haveQueue) {
      int queue = 0;
      if (!parseNumber(word.substr(6), &queue) || queue < 1) {
        out << "error: queue= expects a capacity >= 1\n";
        return;
      }
      options.queueCapacity = static_cast<std::size_t>(queue);
      haveQueue = true;
    } else {
      out << "error: unknown serve option '" << word
          << "' (addr=<host:port> jobs=<n> queue=<n>)\n";
      return;
    }
  }
  auto server = std::make_unique<server::Server>(std::move(options));
  std::string error;
  if (!server->start(&error)) {
    out << "error: serve: " << error << "\n";
    return;
  }
  server_ = std::move(server);
  out << "serve: listening on port " << server_->port() << "\n";
}

void Shell::cmdUse(std::istream& args, std::ostream& out) {
  std::string which;
  args >> which;
  if (which == "synth") {
    if (!synthResult_) {
      out << "error: no synthesis has run\n";
      return;
    }
    useSynth_ = true;
  } else if (which == "source") {
    useSynth_ = false;
  } else {
    out << "usage: use synth|source\n";
    return;
  }
  simulator_.reset();
  out << "active network: " << activeNetwork().name() << "\n";
}

void Shell::cmdEmitC(std::istream& args, std::ostream& out) {
  std::string instance;
  if (!(args >> instance)) {
    out << "usage: emitc <prog-instance>\n";
    return;
  }
  if (!synthResult_) {
    out << "error: no synthesis has run\n";
    return;
  }
  for (const auto& b : synthResult_->blocks)
    if (b.instanceName == instance) {
      out << b.cSource;
      return;
    }
  out << "error: no synthesized block named '" << instance << "'\n";
}

}  // namespace eblocks::shell
