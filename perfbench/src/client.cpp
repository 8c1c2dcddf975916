//===- perfbench/src/client.cpp - Served child, client, /proc -------------===//

#include "bench.h"

#include "svc/EventLoop.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace rocksalt;

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- /proc ------------------------------------------------------------------

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  Out.clear();
  char Tmp[4096];
  for (;;) {
    ssize_t N = ::read(Fd, Tmp, sizeof(Tmp));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Tmp, size_t(N));
  }
  ::close(Fd);
  return true;
}

std::vector<std::string> taskDirs(pid_t Pid) {
  std::vector<std::string> Out;
  std::string Base = "/proc/" + std::to_string(Pid) + "/task";
  DIR *D = ::opendir(Base.c_str());
  if (!D)
    return Out;
  while (dirent *E = ::readdir(D))
    if (E->d_name[0] != '.')
      Out.push_back(Base + "/" + E->d_name);
  ::closedir(D);
  return Out;
}

/// The integer after "Key:" in a /proc status-style file, or -1.
int64_t statusField(const std::string &Text, const char *Key) {
  size_t At = Text.find(Key);
  if (At == std::string::npos)
    return -1;
  return std::strtoll(Text.c_str() + At + std::strlen(Key), nullptr, 10);
}

} // namespace

int64_t processCpuNs(pid_t Pid) {
  int64_t Sum = 0;
  std::string Text;
  for (const std::string &T : taskDirs(Pid))
    if (readFile(T + "/schedstat", Text))
      Sum += std::strtoll(Text.c_str(), nullptr, 10);
  return Sum;
}

int64_t processVoluntarySwitches(pid_t Pid) {
  int64_t Sum = 0;
  std::string Text;
  for (const std::string &T : taskDirs(Pid))
    if (readFile(T + "/status", Text))
      Sum += std::max<int64_t>(0, statusField(Text, "voluntary_ctxt_switches:"));
  return Sum;
}

unsigned processThreads(pid_t Pid) { return unsigned(taskDirs(Pid).size()); }

int64_t processHwmKiB(pid_t Pid) {
  std::string Text;
  if (!readFile("/proc/" + std::to_string(Pid) + "/status", Text))
    return -1;
  return statusField(Text, "VmHWM:");
}

// --- Server -----------------------------------------------------------------

Server::Server(const std::string &Bin, const std::string &Sock,
               const std::string &LogPath)
    : Socket(Sock) {
  ::unlink(Socket.c_str());
  const std::string JobsArg = std::to_string(ServerJobs);
  int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
  if (Log < 0)
    throw std::runtime_error("cannot open server log " + LogPath);
  StartNs = nowNs();
  Pid = ::fork();
  if (Pid < 0) {
    ::close(Log);
    throw std::runtime_error("fork failed");
  }
  if (Pid == 0) {
    int Null = ::open("/dev/null", O_RDONLY);
    ::dup2(Null, 0);
    ::dup2(Log, 1);
    ::dup2(Log, 2);
    const char *Argv[] = {Bin.c_str(), "--serve",       "--socket",
                          Socket.c_str(), "--jobs", JobsArg.c_str(),
                          nullptr};
    ::execv(Bin.c_str(), const_cast<char *const *>(Argv));
    ::_exit(127);
  }
  ::close(Log);
}

Server::~Server() { reap(true); }

void Server::reap(bool Kill) {
  if (Pid <= 0)
    return;
  if (Kill)
    ::kill(Pid, SIGKILL);
  int St = 0;
  while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
  }
  Pid = -1;
  ::unlink(Socket.c_str());
}

int Server::connectRetry() {
  const int64_t Deadline = nowNs() + 20'000'000'000;
  for (;;) {
    std::string Why;
    try {
      return svc::connectUnixSocket(Socket);
    } catch (const std::runtime_error &E) {
      Why = E.what(); // not listening yet
    }
    int St = 0;
    if (::waitpid(Pid, &St, WNOHANG) == Pid) {
      Pid = -1;
      throw std::runtime_error("server exited before serving (see its log)");
    }
    if (nowNs() > Deadline)
      throw std::runtime_error("server socket never came up: " + Why);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Server::shutdown() {
  if (Pid <= 0)
    return;
  {
    Client C(connectRetry());
    C.roundTrip(frame(svc::proto::MsgKind::ShutdownRequest, {}),
                svc::proto::MsgKind::ShutdownResponse);
  }
  const int64_t Deadline = nowNs() + 10'000'000'000;
  int St = 0;
  while (::waitpid(Pid, &St, WNOHANG) == 0) {
    if (nowNs() > Deadline) {
      reap(true);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Pid = -1;
  ::unlink(Socket.c_str());
}

// --- Client -----------------------------------------------------------------

Client::~Client() { ::close(Fd); }

void Client::readSome() {
  if (Pos == Buf.size()) {
    Buf.clear();
    Pos = 0;
  } else if (Pos > (1u << 20)) {
    Buf.erase(Buf.begin(), Buf.begin() + long(Pos));
    Pos = 0;
  }
  size_t Old = Buf.size();
  Buf.resize(Old + 64 * 1024);
  for (;;) {
    ssize_t N = ::read(Fd, Buf.data() + Old, 64 * 1024);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      throw std::runtime_error("read error on service socket");
    if (N == 0)
      throw std::runtime_error("server closed the connection");
    Buf.resize(Old + size_t(N));
    return;
  }
}

svc::proto::Frame Client::roundTrip(const std::vector<uint8_t> &Request,
                                    svc::proto::MsgKind Want) {
  size_t Off = 0;
  while (Off < Request.size()) {
    ssize_t N = ::send(Fd, Request.data() + Off, Request.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      throw std::runtime_error("write error on service socket");
    Off += size_t(N);
  }
  svc::proto::Frame F;
  while (!svc::proto::parseFrame(Buf.data(), Buf.size(), &Pos, &F))
    readSome();
  if (F.Kind == svc::proto::MsgKind::ErrorResponse)
    throw CheckFailure{"server error: " +
                       svc::proto::decodeErrorResponse(F.Body)};
  if (F.Kind != Want)
    throw CheckFailure{std::string("expected ") + svc::proto::msgKindName(Want) +
                       ", got " + svc::proto::msgKindName(F.Kind)};
  return F;
}

std::vector<uint8_t> frame(svc::proto::MsgKind Kind,
                           const std::vector<uint8_t> &Body) {
  std::vector<uint8_t> Out;
  svc::proto::appendFrame(Out, Kind, Body);
  return Out;
}

// --- Result line --------------------------------------------------------

void Tally::check(bool Ok, const char *What) {
  if (Ok)
    return;
  if (++Failed <= 10)
    std::fprintf(stderr, "check failed: %s\n", What);
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::map<std::string, Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  char Num[64];
  for (const auto &[Name, M] : Metrics) {
    std::snprintf(Num, sizeof(Num), "%.17g", M.Value);
    Out += (First ? "" : ", ");
    Out += "\"" + Name + "\": {\"value\": " + Num + ", \"unit\": \"" + M.Unit +
           "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace perfbench
