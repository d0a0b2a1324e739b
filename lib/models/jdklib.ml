(** The model JDK: synthetic MJava implementations of the library surface the
    analysis needs (§4.2 of the paper).

    Following TAJ, library code is replaced by succinct models that are sound
    with respect to taint flow: collection classes store their contents in
    summary fields, [StringBuffer]/[StringBuilder] bottom out in the [String]
    carrier intrinsics, and security-relevant methods ([getParameter],
    [println], [executeQuery], ...) are natives whose semantics come from
    security rules and default library transfer. All classes here are loaded
    with [~library:true], which makes them the library side of the LCP
    boundary (§5). *)

let lang =
  {|
class Object {
  public Object() {}
  public String toString() { return ""; }
  public boolean equals(Object o) { return true; }
  public int hashCode() { return 0; }
  public Class getClass() { return null; }
}

class String {
  public native String concat(String s);
  public native String substring(int b, int e);
  public native String trim();
  public native String toUpperCase();
  public native String toLowerCase();
  public native String replace(String a, String b);
  public native String intern();
  public native String toString();
  public native boolean equals(Object o);
  public native boolean equalsIgnoreCase(String s);
  public native boolean startsWith(String s);
  public native boolean endsWith(String s);
  public native boolean contains(String s);
  public native boolean isEmpty();
  public native int length();
  public native int indexOf(String s);
  public native int compareTo(String s);
  public native char charAt(int i);
  public static native String valueOf(Object o);
}

class StringBuffer {
  String content;
  public StringBuffer() { this.content = ""; }
  public StringBuffer(String s) { this.content = s; }
  public StringBuffer append(Object o) {
    String s = String.valueOf(o);
    this.content = this.content.concat(s);
    return this;
  }
  public String toString() { return this.content; }
  public int length() { return this.content.length(); }
}

class StringBuilder {
  String content;
  public StringBuilder() { this.content = ""; }
  public StringBuilder(String s) { this.content = s; }
  public StringBuilder append(Object o) {
    String s = String.valueOf(o);
    this.content = this.content.concat(s);
    return this;
  }
  public String toString() { return this.content; }
  public int length() { return this.content.length(); }
}

class Integer {
  int value;
  public Integer(int v) { this.value = v; }
  public static native int parseInt(String s);
  public static Integer valueOf(int v) { return new Integer(v); }
  public int intValue() { return this.value; }
  public String toString() { return ""; }
}

class Boolean {
  boolean value;
  public Boolean(boolean v) { this.value = v; }
  public boolean booleanValue() { return this.value; }
}

class Character {
  char value;
  public Character(char c) { this.value = c; }
}

class Math {
  public static native int abs(int x);
  public static native int max(int a, int b);
  public static native int min(int a, int b);
  public static native int random();
}

class System {
  public static PrintStream out = new PrintStream();
  public static PrintStream err = new PrintStream();
  public static native void arraycopy(Object src, int sp, Object dst, int dp, int n);
  public static native int currentTimeMillis();
  public static native String getProperty(String key);
  public static native void exit(int code);
}

class Thread {
  public Thread() {}
  // start dispatches to run on a new thread; the analyzable artifact keeps
  // the call edge so run() is reachable, while the dependence builder marks
  // the crossing as a thread boundary
  public void start() { this.run(); }
  public void run() {}
  public static native void sleep(int ms);
}

class Class {
  public static native Class forName(String name);
  public native Method[] getMethods();
  public native Method getMethod(String name);
  public native Object newInstance();
  public native String getName();
}

class Method {
  public native String getName();
  public native Object invoke(Object recv, Object[] args);
}

class Throwable {
  String msg;
  public Throwable() {}
  public Throwable(String m) { this.msg = m; }
  public native String getMessage();
  public String toString() { return this.getMessage(); }
  public native void printStackTrace();
}
class Exception extends Throwable {
  public Exception() {}
  public Exception(String m) { super(m); }
}
class RuntimeException extends Exception {
  public RuntimeException() {}
  public RuntimeException(String m) { super(m); }
}
class IOException extends Exception {
  public IOException() {}
  public IOException(String m) { super(m); }
}
class SQLException extends Exception {
  public SQLException() {}
  public SQLException(String m) { super(m); }
}
class ServletException extends Exception {
  public ServletException() {}
  public ServletException(String m) { super(m); }
}
class NumberFormatException extends RuntimeException {
  public NumberFormatException() {}
}
class Error extends Throwable {
  public Error() {}
}

class Date {
  public Date() {}
  public static native String getDate();
  public String toString() { return ""; }
}

class Random {
  public Random() {}
  public native int nextInt(int bound);
}

class Runtime {
  public static Runtime getRuntime() { return new Runtime(); }
  public native Process exec(String cmd);
}
class Process {
  public native InputStream getInputStream();
  public native int waitFor();
}

class URLEncoder {
  public static native String encode(String s);
}
class Sanitizer {
  public static native String encodeHtml(String s);
  public static native String escapeSql(String s);
  public static native String cleansePath(String s);
}
class URLDecoder {
  public static native String decode(String s);
}

class StringTokenizer {
  String src;
  public StringTokenizer(String s) { this.src = s; }
  public native boolean hasMoreTokens();
  public String nextToken() { return this.src; }
}
|}

let collections =
  {|
interface Collection {
  boolean add(Object o);
  int size();
  Iterator iterator();
}
interface List extends Collection {
  Object get(int i);
}
interface Map {
  Object put(Object key, Object value);
  Object get(Object key);
  boolean containsKey(Object key);
  Iterator keys();
}
interface Set extends Collection {
  boolean contains(Object o);
}
interface Iterator {
  boolean hasNext();
  Object next();
}
interface Enumeration {
  boolean hasMoreElements();
  Object nextElement();
}

class ArrayList implements List {
  Object elems;
  int count;
  public ArrayList() { this.count = 0; }
  public boolean add(Object o) { this.elems = o; this.count = this.count + 1; return true; }
  public Object get(int i) { return this.elems; }
  public Object remove(int i) { return this.elems; }
  public int size() { return this.count; }
  public Iterator iterator() { return new SeqIterator(this.elems); }
}

class Vector implements List {
  Object elems;
  int count;
  public Vector() { this.count = 0; }
  public boolean add(Object o) { this.elems = o; this.count = this.count + 1; return true; }
  public void addElement(Object o) { this.elems = o; }
  public Object get(int i) { return this.elems; }
  public Object elementAt(int i) { return this.elems; }
  public int size() { return this.count; }
  public Iterator iterator() { return new SeqIterator(this.elems); }
  public Enumeration elements() { return new SeqEnumeration(this.elems); }
}

class LinkedList implements List {
  Object elems;
  public LinkedList() {}
  public boolean add(Object o) { this.elems = o; return true; }
  public Object get(int i) { return this.elems; }
  public Object getFirst() { return this.elems; }
  public int size() { return 0; }
  public Iterator iterator() { return new SeqIterator(this.elems); }
}

class HashSet implements Set {
  Object elems;
  public HashSet() {}
  public boolean add(Object o) { this.elems = o; return true; }
  public boolean contains(Object o) { return true; }
  public int size() { return 0; }
  public Iterator iterator() { return new SeqIterator(this.elems); }
}

class SeqIterator implements Iterator {
  Object cursor;
  public SeqIterator(Object elems) { this.cursor = elems; }
  public boolean hasNext() { return true; }
  public Object next() { return this.cursor; }
}
class SeqEnumeration implements Enumeration {
  Object cursor;
  public SeqEnumeration(Object elems) { this.cursor = elems; }
  public boolean hasMoreElements() { return true; }
  public Object nextElement() { return this.cursor; }
}

// Hash dictionaries: put/get calls are rewritten by the constant-key model
// (Models.Collections); these bodies are the fallback documentation of the
// summary-field semantics.
class HashMap implements Map {
  public HashMap() {}
  public native Object put(Object key, Object value);
  public native Object get(Object key);
  public native boolean containsKey(Object key);
  public native Iterator keys();
}
class Hashtable implements Map {
  public Hashtable() {}
  public native Object put(Object key, Object value);
  public native Object get(Object key);
  public native boolean containsKey(Object key);
  public native Iterator keys();
}
class Properties {
  public Properties() {}
  public native String getProperty(String key);
  public native void setProperty(String key, String value);
}
|}

let io =
  {|
class InputStream {
  public InputStream() {}
  public native int read();
  public native void close();
}
class OutputStream {
  public OutputStream() {}
  public native void write(int b);
  public native void close();
}
class Reader {
  public Reader() {}
  public native int read();
  public native void close();
}
class Writer {
  public Writer() {}
  public native void write(String s);
  public native void close();
}
class PrintStream extends OutputStream {
  public PrintStream() {}
  public native void println(Object o);
  public native void print(Object o);
}
class PrintWriter extends Writer {
  public PrintWriter() {}
  public native void println(Object o);
  public native void print(Object o);
  public native void flush();
}
class File {
  String path;
  public File(String path) { this.path = path; }
  public String getPath() { return this.path; }
  public native boolean exists();
  public native boolean delete();
}
class FileInputStream extends InputStream {
  public FileInputStream(String path) {}
  public native String readContent();
}
class FileOutputStream extends OutputStream {
  public FileOutputStream(String path) {}
}
class FileReader extends Reader {
  public FileReader(String path) {}
}
class FileWriter extends Writer {
  public FileWriter(String path) {}
}
class BufferedReader extends Reader {
  Reader inner;
  public BufferedReader(Reader r) { this.inner = r; }
  public native String readLine();
}
class RandomAccessFile {
  public RandomAccessFile(String path, String mode) {}
  public native void readFully(Object buffer);
  public native void close();
}
class ObjectInputStream extends InputStream {
  public ObjectInputStream(InputStream in) {}
  public native Object readObject();
}
|}

let servlet =
  {|
class HttpServletRequest {
  public HttpServletRequest() {}
  public native String getParameter(String name);
  public native String[] getParameterValues(String name);
  public native String getHeader(String name);
  public native String getQueryString();
  public native String getRequestURI();
  public native Cookie[] getCookies();
  public native Object getAttribute(String name);
  public native void setAttribute(String name, Object value);
  public HttpSession getSession() { return new HttpSession(); }
  public native BufferedReader getReader();
  public native RequestDispatcher getRequestDispatcher(String path);
}
class HttpServletResponse {
  public HttpServletResponse() {}
  public native PrintWriter getWriter();
  public native ServletOutputStream getOutputStream();
  public native void sendRedirect(String url);
  public native void addHeader(String name, String value);
  public native void setContentType(String t);
  public native void sendError(int code, String msg);
}
class ServletOutputStream extends OutputStream {
  public ServletOutputStream() {}
  public native void println(Object o);
  public native void print(Object o);
}
class HttpSession {
  public HttpSession() {}
  public native Object getAttribute(String name);
  public native void setAttribute(String name, Object value);
  public native void invalidate();
}
class Cookie {
  String name;
  String value;
  public Cookie(String name, String value) { this.name = name; this.value = value; }
  public native String getValue();
  public String getName() { return this.name; }
}
class RequestDispatcher {
  public RequestDispatcher() {}
  public native void forward(HttpServletRequest req, HttpServletResponse resp);
  public native void include(HttpServletRequest req, HttpServletResponse resp);
}
class ServletConfig {
  public ServletConfig() {}
  public native String getInitParameter(String name);
}
class ServletContext {
  public ServletContext() {}
  public native Object getAttribute(String name);
  public native void setAttribute(String name, Object value);
}
class HttpServlet {
  public HttpServlet() {}
  public void doGet(HttpServletRequest req, HttpServletResponse resp) {}
  public void doPost(HttpServletRequest req, HttpServletResponse resp) {}
  public void service(HttpServletRequest req, HttpServletResponse resp) {
    this.doGet(req, resp);
    this.doPost(req, resp);
  }
  public void init(ServletConfig config) {}
}
|}

let jdbc =
  {|
class DriverManager {
  public static native Connection getConnection(String url);
}
class Connection {
  public Connection() {}
  public native Statement createStatement();
  public native PreparedStatement prepareStatement(String sql);
  public native void close();
}
class Statement {
  public Statement() {}
  public native ResultSet executeQuery(String sql);
  public native int executeUpdate(String sql);
  public native boolean execute(String sql);
  public native void close();
}
class PreparedStatement extends Statement {
  public PreparedStatement() {}
  public native void setString(int i, String v);
  public native ResultSet runQuery();
}
class ResultSet {
  public ResultSet() {}
  public native boolean next();
  public native String getString(String column);
  public native int getInt(String column);
  public native void close();
}
|}

let frameworks =
  {|
// --- Struts ---
class ActionForm {
  public ActionForm() {}
  public void reset() {}
}
class ActionMapping {
  public ActionMapping() {}
  public native ActionForward findForward(String name);
}
class ActionForward {
  public ActionForward() {}
}
class Action {
  public Action() {}
  public ActionForward execute(ActionMapping mapping, ActionForm form,
                               HttpServletRequest req, HttpServletResponse resp) {
    return null;
  }
}

// --- EJB ---
interface EJBHome {
}
interface EJBObject {
}
class Context {
  public Context() {}
  public native Object lookup(String name);
}
class InitialContext extends Context {
  public InitialContext() {}
}
class PortableRemoteObject {
  public static Object narrow(Object o, Class k) { return o; }
}

// --- Logging ---
class Logger {
  public static Logger getLogger(String name) { return new Logger(); }
  public native void info(String msg);
  public native void warning(String msg);
  public native void severe(String msg);
}
|}

(** All compilation-unit sources of the model JDK, in load order. *)
let sources = [ lang; collections; io; servlet; jdbc; frameworks ]

(* Publish-once cells. Not [Lazy.t]: the frontend may be entered from
   several domains at once (serve workers and parallel bench rows each
   call [Taj.load]), and concurrently forcing a shared lazy raises
   [CamlinternalLazy.Undefined]. The [Atomic] publishes the value with
   release/acquire ordering; the mutex only serializes the first
   computation. A published value is never written again. *)
let once (compute : unit -> 'a) : unit -> 'a =
  let memo = Atomic.make None in
  let lock = Mutex.create () in
  fun () ->
    match Atomic.get memo with
    | Some v -> v
    | None ->
      Mutex.lock lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
      (match Atomic.get memo with
       | Some v -> v
       | None ->
         let v = compute () in
         Atomic.set memo (Some v);
         v)

(** Parse the model JDK into compilation units (cached, domain-safe). *)
let units = once (fun () -> List.map Jir.Parser.parse sources)

(* The JDK neither calls reflection nor catches, so the model rewrites
   never touch it: once SSA-converted it is final. *)
let build_image () =
  let p = Jir.Program.create () in
  let units = units () in
  List.iter (Jir.Lower.declare p ~library:true) units;
  List.iter (Jir.Lower.define p ~library:true) units;
  Jir.Ssa.convert_program p;
  p

let image = once build_image

(** Names of the dictionary-like classes whose [put]/[get]-style access is
    subject to the constant-key model (§4.2.1). *)
let dictionary_classes =
  [ "HashMap"; "Hashtable"; "Map"; "Properties"; "HttpSession";
    "HttpServletRequest"; "ServletContext" ]
